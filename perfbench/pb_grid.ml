(* diff_grid: the Table-4 differential grid (Campaign.run), journalled,
   on a two-runner pool. A traced sub-campaign is the same call with the
   program's span collection (Span) on. A replay then runs one
   sub-campaign's journalled cells again, one at a time, through the
   vendor driver's public calls: it times them, checks each outcome
   against the journal, and counts the interpreted cells that repeat an
   earlier cell of the same kernel. *)

open Pb_util

let jobs = 2
let per_mode = 4

(* The interpreter's per-thread step budget (the campaigns' soft timeout,
   `--fuel`). The default budget lets a handful of many-thread kernels
   dominate a run, so that two seeds differ several-fold in cost; this
   budget keeps the heaviest kernel within a few times the mean. *)
let fuel = Some 1_000

let cells_per_kernel () = 2 * List.length Config.above_threshold_ids

(* sub-campaign [i] of seed [seed]: disjoint generator-seed ranges *)
let seed0_of seed i = 10_000 + (seed * 100_000) + (i * 1_000)
let scale = Printf.sprintf "n%d-f%d" per_mode (Option.get fuel)

(* nominal seconds per sub-campaign on a two-core host: turns --seconds
   into a fixed sub-campaign count, so a seed always names the same inputs *)
let nominal_s = 1.5

(* Kernel completion times as the ordered result stream delivers them:
   cells arrive in task order, so every [per_kernel]-th cell completes a
   kernel. The gaps between completions are the per-kernel latencies. *)
type gaps = { per_kernel : int; mutable last : float; mutable n : int; mutable gaps : float list }

let gaps ~per_kernel = { per_kernel; last = now (); n = 0; gaps = [] }

let tick g =
  g.n <- g.n + 1;
  if g.n mod g.per_kernel = 0 then begin
    let t = now () in
    g.gaps <- (t -. g.last) :: g.gaps;
    g.last <- t
  end

(* one timed sub-campaign of a batch workload *)
type rep = {
  wall : float;
  cpu : float;
  cells : int;
  kernels : int;
  kgaps : float list;  (** seconds between kernel completions *)
  bugs : int;  (** triage buckets *)
  digest : string;  (** of the outputs the run is checked by *)
}

(* One set-up sample: [batch] pools of [jobs] runners come up and
   round-trip one task per runner; the seconds per pool. A single set-up
   takes a tenth of a millisecond, too little to time alone. *)
let pool_setup ~batch =
  let total = ref 0.0 in
  for _ = 1 to batch do
    let pool, dt =
      time (fun () ->
          let p = Pool.create ~jobs in
          ignore (Pool.map p ~f:succ (List.init jobs Fun.id));
          p)
    in
    Pool.shutdown pool;
    total := !total +. dt
  done;
  !total /. float batch

let digest_of ~table ~journal =
  Digest.to_hex (Digest.string (table ^ "\n" ^ read_file journal))

let header ~seed0 = Campaign.journal_header ?fuel ~per_mode ~seed0 ()

(* triage buckets of a journal (Triage.of_journal), and the seconds the
   call took *)
let triage_journal path =
  match Journal.load ~path with
  | Ok (h, cells, _) -> (
      match time (fun () -> Triage.of_journal h cells) with
      | Ok b, dt -> (List.length b, dt)
      | Error _, dt -> (0, dt))
  | Error _ -> (0, 0.0)

(* One sub-campaign: Campaign.run with a journal sink; the rep and
   Campaign.run's per-mode results. *)
let run ?(jobs = jobs) ~seed0 path =
  let w = Journal.create ~path (header ~seed0) in
  let g = gaps ~per_kernel:(cells_per_kernel ()) in
  let c0 = cpu_self () in
  let t0 = now () in
  g.last <- t0;
  let res =
    Campaign.run ~jobs ?fuel ~per_mode ~seed0
      ~sink:(fun c ->
        Journal.write_cell w c;
        tick g)
      ()
  in
  Span.with_ ~cat:"persist" "journal.commit" (fun () -> Journal.commit w);
  let wall = now () -. t0 in
  let cpu = cpu_self () -. c0 in
  ( {
      wall;
      cpu;
      cells = g.n;
      kernels = g.n / g.per_kernel;
      kgaps = g.gaps;
      bugs = fst (triage_journal path);
      digest = digest_of ~table:(Campaign.to_table res) ~journal:path;
    },
    res )

(* ------------------------------------------------------------------ *)
(* A traced sub-campaign                                               *)
(* ------------------------------------------------------------------ *)

type traced = {
  trep : rep;
  spans : Span.t list;
  busy : (int * float) list;  (** per domain, seconds inside pool tasks *)
  steps : int;
  barriers : int;
  atomics : int;
  race_checks : int;
  generated : int;  (** candidate kernels generated *)
  sharing : int;  (** of which discarded for counter sharing *)
  journal_bytes : int;
  triage_s : float;  (** Triage.of_journal over the sub-campaign's journal *)
}

let run_traced ~seed0 path =
  let (trep, res), spans = traced (fun () -> run ~seed0 path) in
  let sum_modes f = List.fold_left (fun a r -> a + f r) 0 res in
  {
    trep;
    spans;
    busy = pool_busy ();
    steps = counter "interp.steps";
    barriers = counter "interp.barriers";
    atomics = counter "interp.atomics";
    race_checks = counter "interp.race_checks";
    generated =
      sum_modes (fun r ->
          r.Campaign.tests_used + r.Campaign.discarded_sharing + r.Campaign.discarded_prefilter);
    sharing = sum_modes (fun r -> r.Campaign.discarded_sharing);
    journal_bytes = (Unix.stat path).Unix.st_size;
    triage_s = snd (triage_journal path);
  }

(* ------------------------------------------------------------------ *)
(* Replay of a journal through the vendor driver                       *)
(* ------------------------------------------------------------------ *)

type replay = {
  kernels : int;
  rcells : int;
  prepare_s : float;  (** total, Driver.prepare *)
  cell_s : float;  (** total, Driver.run_prepared_stats *)
  interpreted : int;  (** cells that ran the interpreter *)
  repeats : int;  (** of which repeat an earlier cell of the same kernel *)
  mismatches : int;  (** cells whose outcome differs from the journal's *)
  size_before : int;  (** printed bytes of the kernels *)
  size_after : int;  (** ... after the optimisation passes *)
}

(* the optimisation passes in the vendors' standard order *)
let passes () =
  [ Const_fold.pass (); Simplify.pass (); Unroll.pass (); Dce.pass (); Const_fold.pass (); Simplify.pass () ]

(* Every journalled cell again, in journal order. An interpreted cell is
   a repeat when its compiled program (Driver.compiled_program) and its
   interpreter tally equal those of an earlier interpreted cell of the
   same kernel: the most a per-kernel execution memo could skip. *)
let replay path =
  let cells =
    match Journal.load ~path with Ok (_, cells, _) -> cells | Error _ -> failwith "replay: journal"
  in
  let kernels = ref 0 and rcells = ref 0 and prepare_s = ref 0.0 and cell_s = ref 0.0 in
  let interpreted = ref 0 and repeats = ref 0 and mismatches = ref 0 in
  let size_before = ref 0 and size_after = ref 0 in
  let current = ref None and seen = Hashtbl.create 32 in
  let kernel (c : Journal.cell) =
    match !current with
    | Some (mode, seed, tc, prep) when mode = c.Journal.mode && seed = c.Journal.seed -> (tc, prep)
    | _ ->
        let mode = Option.get (Gen_config.mode_of_string c.Journal.mode) in
        let tc, _ = Generate.generate ~cfg:(Gen_config.scaled mode) ~seed:c.Journal.seed () in
        let prep, dt = time (fun () -> Driver.prepare tc) in
        prepare_s := !prepare_s +. dt;
        incr kernels;
        Hashtbl.reset seen;
        size_before := !size_before + String.length (Pp.program_to_string tc.Ast.prog);
        size_after :=
          !size_after + String.length (Pp.program_to_string (Pass.pipeline (passes ()) tc.Ast.prog));
        current := Some (c.Journal.mode, c.Journal.seed, tc, prep);
        (tc, prep)
  in
  List.iter
    (fun (c : Journal.cell) ->
      let tc, prep = kernel c in
      let cfg = Config.find c.Journal.config and opt = c.Journal.opt = "+" in
      let (o, st), dt = time (fun () -> Driver.run_prepared_stats ?fuel cfg ~opt prep) in
      cell_s := !cell_s +. dt;
      incr rcells;
      if [ o ] <> c.Journal.outcomes then incr mismatches;
      if st.Interp.steps > 0 then begin
        incr interpreted;
        let key =
          ( Digest_util.full (Driver.compiled_program cfg ~opt tc),
            (st.Interp.steps, st.Interp.barriers, st.Interp.atomics, st.Interp.race_checks) )
        in
        if Hashtbl.mem seen key then incr repeats else Hashtbl.replace seen key ()
      end)
    cells;
  {
    kernels = !kernels;
    rcells = !rcells;
    prepare_s = !prepare_s;
    cell_s = !cell_s;
    interpreted = !interpreted;
    repeats = !repeats;
    mismatches = !mismatches;
    size_before = !size_before;
    size_after = !size_after;
  }
