(* Result record shared by the workloads, the committed output digests,
   the layer rollup of a traced run, and the diff_grid workload, whose
   traced run also measures the fuzz loop and the distributed fabric. *)

open Pb_util

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Committed digests: "<workload> <scale> <seed> <md5>" per line        *)
(* ------------------------------------------------------------------ *)

let digests_file = "perfbench/digests.txt"

let committed =
  lazy
    (try
       List.filter_map
         (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; s; seed; d ] -> Some ((w, s, int_of_string seed), d)
           | _ -> None)
         (String.split_on_char '\n' (read_file digests_file))
     with Sys_error _ -> [])

let committed_digest ~workload ~scale ~seed =
  List.assoc_opt (workload, scale, seed) (Lazy.force committed)

(* ------------------------------------------------------------------ *)
(* Traced-run rollup                                                   *)
(* ------------------------------------------------------------------ *)

(* the layer a span of the program's tracer belongs to *)
let layer_of (s : Span.t) =
  match s.Span.cat with
  | "gen" -> if s.Span.name = "fuzz-plan" then "fuzz" else "clsmith"
  | "check" -> "minicl"
  | "exec" -> "ocl_vm"
  | "vote" -> "harness"
  | "persist" -> "store"
  | c -> c

(* the layers of the rollup: those the workloads' spans reach (the
   front end's typecheck span runs only in the mutator and the reducer) *)
let layers = [ "clsmith"; "opt"; "ocl_vm"; "vendors"; "harness"; "store"; "serve" ]

(* The self-time rollup of one traced run of [wall] seconds on [jobs]
   runners, in wall-clock seconds (runner seconds / jobs):
   - a span's self time goes to its layer;
   - pool task time ([busy], the pool's own per-domain counters) that no
     span covers goes to vendors: a task is a Driver call, or a
     generate-prepare-prefilter step, and Driver records no span around
     its own code;
   - a spawned runner's time outside tasks is pool idle (exec.idle_s);
   - the rest — the submitting domain's time outside tasks and spans:
     harness code between pool batches, and waiting on the other runner
     at the end of a batch — is trace.unattributed_s.
   trace.rollup_s is the attributed sum. *)
let rollup ~jobs ~wall ~busy spans =
  let main = (Domain.self () :> int) in
  let tbl = Hashtbl.create 16 in
  let add l x = Hashtbl.replace tbl l (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)) in
  let in_tasks = ref 0.0 in
  List.iter
    (fun (s, self, task_top) ->
      add (layer_of s) self;
      if task_top then in_tasks := !in_tasks +. dur_s s)
    (self_times spans);
  if busy <> [] then add "vendors" (Float.max 0.0 (sum (List.map snd busy) -. !in_tasks));
  let spawned = sum (List.filter_map (fun (d, b) -> if d <> main then Some b else None) busy) in
  let idle = Float.max 0.0 ((float (jobs - 1) *. wall) -. spawned) in
  let j = float jobs in
  let attributed = (Hashtbl.fold (fun _ x a -> a +. x) tbl 0.0 +. idle) /. j in
  List.map
    (fun l -> ("self." ^ l ^ "_s", Option.value ~default:0.0 (Hashtbl.find_opt tbl l) /. j))
    layers
  @ [
      ("exec.idle_s", idle /. j);
      ("trace.rollup_s", attributed);
      ("trace.unattributed_s", wall -. attributed);
    ]

(* The rollup of a run's traced sub-runs, given each one's wall time,
   pool busy time and spans, as a mean per sub-run; [untraced] are the
   wall times of untraced runs of the same inputs, in the same order. The
   spans are written to _perfbench/spans-<workload>.json as one Perfetto
   trace, one process per sub-run. *)
let traced_report ~workload ~jobs ~untraced traced =
  let k = List.length traced in
  let n = float k in
  let path = Filename.concat work_dir ("spans-" ^ workload ^ ".json") in
  Trace.write_groups ~path (List.mapi (fun i (_, _, spans) -> (Printf.sprintf "sub-run %d" i, spans)) traced);
  note "%d spans of %d traced sub-runs written to %s"
    (List.fold_left (fun a (_, _, s) -> a + List.length s) 0 traced)
    k path;
  let rolls = List.map (fun (wall, busy, spans) -> rollup ~jobs ~wall ~busy spans) traced in
  let layers =
    List.map (fun (name, _) -> (name, sum (List.map (List.assoc name) rolls) /. n)) (List.hd rolls)
  in
  let wall = sum (List.map (fun (w, _, _) -> w) traced) /. n in
  let untraced = sum (List.filteri (fun i _ -> i < k) untraced) /. n in
  note "traced-run rollup (wall-clock seconds per sub-run):";
  List.iter
    (fun (name, s) -> note "  %-22s %8.4f  (%5.1f%%)" name s (100.0 *. s /. wall))
    (List.filter (fun (name, _) -> has_prefix "self." name || name = "exec.idle_s") layers);
  note "  attributed %.4f s of traced wall %.4f s (unattributed %.4f s); untraced wall %.4f s, \
        overhead %.4f s"
    (List.assoc "trace.rollup_s" layers) wall
    (List.assoc "trace.unattributed_s" layers)
    untraced (wall -. untraced);
  layers
  @ [
      ("trace.untraced_wall_s", untraced); ("trace.traced_wall_s", wall);
      ("trace.overhead_s", wall -. untraced);
    ]

(* ------------------------------------------------------------------ *)
(* Batch workloads                                                     *)
(* ------------------------------------------------------------------ *)

(* A batch run is a fixed number of independent sub-campaigns with
   disjoint seeds: --seconds over a nominal cost per sub-campaign, so a
   seed always names the same inputs. *)
let sub_runs ~seconds ~nominal = max 3 (int_of_float (Float.round (seconds /. nominal)))

(* the mean without the highest and the lowest value (given at least
   five): a sub-campaign hit by a burst of host load, or holding one
   unusually heavy kernel, moves it little *)
let trimmed_mean xs =
  let s = sorted xs in
  let s = if List.length s >= 5 then List.tl (List.rev (List.tl (List.rev s))) else s in
  sum s /. float (List.length s)

(* the end-to-end metrics of a batch workload: trimmed means over its
   sub-campaigns; latency is the gap between kernel completions in the
   ordered result stream, pooled over sub-campaigns *)
let batch_e2e ~setups (reps : Pb_grid.rep list) =
  let tm f = trimmed_mean (List.map f reps) in
  let cpu = tm (fun (r : Pb_grid.rep) -> r.cpu) in
  let bugs = tm (fun (r : Pb_grid.rep) -> float r.bugs) in
  let gaps = List.concat_map (fun (r : Pb_grid.rep) -> r.kgaps) reps in
  let tp = tail_pct (List.length gaps) in
  note "%d sub-campaigns, %d kernel latencies (tail percentile p%d), %d set-ups"
    (List.length reps) (List.length gaps) tp (List.length setups);
  note "sub-campaign walls (s): %s"
    (String.concat " " (List.map (fun (r : Pb_grid.rep) -> Printf.sprintf "%.3f" r.wall) reps));
  [
    ("setup_s", median setups);
    ("wall_s", tm (fun (r : Pb_grid.rep) -> r.wall));
    ("cells_per_s", tm (fun (r : Pb_grid.rep) -> float r.cells /. r.wall));
    ("cpu_s", cpu);
    ("peak_rss_mb", float (hwm_kb 0) /. 1024.0);
    ("distinct_bugs", bugs);
    ("bugs_per_cpu_s", bugs /. cpu);
    ("req_per_s", tm (fun (r : Pb_grid.rep) -> float r.kernels /. r.wall));
    ("p50_us", 1e6 *. percentile gaps 50.0);
    ("p99_us", 1e6 *. percentile gaps (float tp));
  ]

(* [f] over [xs] in order, as (x, f x), starting no new one once [limit]
   seconds have passed: a heavily loaded host must not push a run past its
   time budget. A shortened run says so. *)
let map_for limit f xs =
  let t0 = now () in
  let rec go acc = function
    | x :: rest when acc = [] || now () -. t0 < limit -> go ((x, f x) :: acc) rest
    | rest ->
        if rest <> [] then
          note "time limit %.0f s reached: %d sub-campaigns skipped" limit (List.length rest);
        List.rev acc
  in
  go [] xs

(* [f] repeated until [seconds] have passed, at least once *)
let repeat_for seconds f =
  let deadline = now () +. seconds in
  let rec go acc = if acc <> [] && now () >= deadline then List.rev acc else go (f () :: acc) in
  go []

(* Sub-campaigns without a committed digest that are checked against a
   single-runner reference run (which shares no schedule with the
   measured two-runner run); the reference costs about twice the
   sub-campaign, so only the first few are checked. *)
let max_reference_checks = 3

(* Check each sub-campaign's digest against its committed one, or failing
   that against a reference run; a traced sub-campaign must also match
   its untraced twin. A reference-checked digest is printed as a
   "digest:" line in the committed-digest format. Returns the number of
   mismatching sub-campaigns. *)
let check ~what ~workload ~scale ~reference digests =
  let committed = ref 0 and referenced = ref 0 and unchecked = ref 0 in
  let refs = Hashtbl.create 8 in
  let expect seed =
    match committed_digest ~workload ~scale ~seed with
    | Some d ->
        incr committed;
        Some d
    | None -> (
        match Hashtbl.find_opt refs seed with
        | Some d -> Some d
        | None when Hashtbl.length refs < max_reference_checks ->
            let d = reference seed in
            Hashtbl.replace refs seed d;
            incr referenced;
            note "digest: %s %s %d %s" workload scale seed d;
            Some d
        | None ->
            incr unchecked;
            None)
  in
  let bad =
    List.filter
      (fun (seed, got, twin) ->
        (match expect seed with Some want -> got <> want | None -> false)
        || match twin with Some d -> d <> got | None -> false)
      digests
  in
  note "%s: %d of %d sub-campaigns mismatch (%d checked against committed digests, %d \
        against reference runs, %d without a reference)"
    what (List.length bad) (List.length digests) !committed !referenced !unchecked;
  List.length bad

(* (seed, digest, twin) for [check]: every untraced sub-campaign, then
   every traced one, whose twin is the untraced run of the same seed *)
let checks seeds untraced traced =
  List.map2 (fun s d -> (s, d, None)) seeds untraced
  @ List.mapi (fun i d -> (List.nth seeds i, d, Some (List.nth untraced i))) traced

(* the sub-campaign seeds of a run (half as many in a traced run, which
   runs each twice), and its time limit *)
let plan ~seconds ~trace ~nominal seed_of =
  let k = sub_runs ~seconds ~nominal in
  (List.init (if trace then max 1 (k / 2) else k) seed_of, 1.5 *. seconds)

(* The fuzz loop and the reducer, measured in diff_grid's traced run: a
   few fuzz sub-runs, each checked against its committed digest;
   the mutator over the seeds they admitted; the reducer over the
   wrong-code kernels of the traced grid. Returns (mismatches, cells,
   layers). *)
let fuzz_side ~seed ~seconds ~candidates =
  let seeds = List.init Pb_fuzz.side_runs (Pb_fuzz.seed_of seed) in
  let runs = List.map (fun s -> Pb_fuzz.run ~seed:s ()) seeds in
  let bad =
    check ~what:"fuzz loop buckets + coverage" ~workload:"fuzz" ~scale:Pb_fuzz.scale
      ~reference:(fun s -> (fst (Pb_fuzz.run ~jobs:1 ~seed:s ())).Pb_grid.digest)
      (List.map2 (fun s ((rep : Pb_grid.rep), _) -> (s, rep.digest, None)) seeds runs)
  in
  let total f = float (List.fold_left (fun a r -> a + f r) 0 runs) in
  let pool = List.concat_map (fun (_, r) -> Seedpool.entries r.Fuzz_loop.pool) runs in
  let red = Pb_fuzz.reduce ~cap:(seconds /. 6.0) candidates in
  let per_kernel x = x /. float (max 1 red.reduced) in
  note "fuzz loop: %d sub-runs, %d seeds admitted; reducer: %d of %d wrong-code kernels \
        reduced (%d cut at the time limit), %d candidates, %.3f s"
    (List.length runs) (List.length pool) red.reduced (List.length candidates) red.cut red.tried
    red.reduce_s;
  ( bad,
    int_of_float (total (fun ((rep : Pb_grid.rep), _) -> rep.cells)),
    [
      ("fuzz.mutate_s", Pb_fuzz.mutate_s pool);
      ( "fuzz.admit_frac",
        float (List.length pool) /. total (fun (_, r) -> r.Fuzz_loop.kernels_run) );
      ("reducer.s", per_kernel red.reduce_s);
      ("reducer.predicate_s", per_kernel red.predicate_s);
      ("reducer.gate_s", per_kernel (red.reduce_s -. red.predicate_s));
      ("reducer.attempts", per_kernel (float red.tried));
      ("reducer.accept_frac", float red.accepted /. float (max 1 red.tried));
    ] )

(* per-layer metrics of diff_grid's traced sub-campaigns (means per
   sub-campaign, or ratios over all of them) and of the replay of the
   first one *)
let grid_layers (ts : Pb_grid.traced list) (rp : Pb_grid.replay) =
  let n = float (List.length ts) in
  let per f = sum (List.map f ts) /. n in
  let spans keep = per (fun (t : Pb_grid.traced) -> span_total keep t.spans) in
  let cat c (s : Span.t) = s.Span.cat = c in
  (* cells, not prefilter runs, carry their cell index as flow id *)
  let cell_exec (s : Span.t) = s.Span.cat = "exec" && s.Span.flow >= 0 in
  let exec_s = spans cell_exec and steps = per (fun t -> float t.steps) in
  let ratio f g = sum (List.map f ts) /. Float.max 1.0 (sum (List.map g ts)) in
  [
    ("clsmith.generate_s", spans (named "generate"));
    ("clsmith.discard_frac", ratio (fun t -> float t.sharing) (fun t -> float t.generated));
    ("vendors.prepare_s", rp.prepare_s /. float (max 1 rp.kernels));
    ("vendors.cell_s", rp.cell_s /. float (max 1 rp.rcells));
    ( "vendors.gated_frac",
      1.0 -. ratio (fun t -> float (span_count cell_exec t.spans)) (fun t -> float t.trep.cells) );
    ("opt.const_fold_s", spans (named "opt:const-fold"));
    ("opt.simplify_s", spans (named "opt:simplify"));
    ("opt.unroll_s", spans (named "opt:unroll"));
    ("opt.dce_s", spans (named "opt:dce"));
    ("opt.size_ratio", float rp.size_after /. float (max 1 rp.size_before));
    ("ocl_vm.exec_s", exec_s);
    ("ocl_vm.steps", steps);
    ("ocl_vm.ns_per_step", exec_s *. 1e9 /. Float.max 1.0 steps);
    ("ocl_vm.barriers", per (fun t -> float t.barriers));
    ("ocl_vm.atomics", per (fun t -> float t.atomics));
    ("ocl_vm.race_checks", per (fun t -> float t.race_checks));
    ("ocl_vm.repeat_frac", float rp.repeats /. float (max 1 rp.interpreted));
    ("harness.vote_s", spans (cat "vote"));
    ( "exec.busy_frac",
      ratio (fun t -> sum (List.map snd t.busy)) (fun t -> float Pb_grid.jobs *. t.trep.wall) );
    ("store.append_s", spans (cat "persist"));
    ("store.bytes", per (fun t -> float t.journal_bytes));
    ("triage.s", per (fun t -> t.triage_s));
  ]

let diff_grid ~seed ~seconds ~trace =
  let seeds, limit = plan ~seconds ~trace ~nominal:Pb_grid.nominal_s (Pb_grid.seed0_of seed) in
  let path = scratch "grid.jsonl" and first = scratch "grid-first.jsonl" in
  (* one set-up sample after each sub-campaign, so that the samples span
     the run rather than one moment of the host's load; first one
     unmeasured, as the first pools in a process pay for first-touch page
     faults *)
  ignore (Pb_grid.pool_setup ~batch:20);
  let setups = ref [] in
  let sample () = setups := Pb_grid.pool_setup ~batch:20 :: !setups in
  (* A traced run takes every sub-campaign twice, untraced and with spans
     on, alternating which goes first so that neither side always gets
     the warmer process. The first traced one's journal is kept for the
     replay; every traced one's wrong-code kernels are the reducer's
     candidates. *)
  let runs =
    map_for limit
      (fun (i, seed0) ->
        let untraced () = fst (Pb_grid.run ~seed0 path) in
        let traced () =
          let p = if i = 0 then first else path in
          let t = Pb_grid.run_traced ~seed0 p in
          (t, Pb_fuzz.wrong_code_cells p)
        in
        let r =
          if not trace then (untraced (), None)
          else if i mod 2 = 0 then
            let u = untraced () in
            (u, Some (traced ()))
          else
            let t = traced () in
            (untraced (), Some t)
        in
        sample ();
        r)
      (List.mapi (fun i s -> (i, s)) seeds)
  in
  let seeds = List.map (fun ((_, s), _) -> s) runs in
  let untraced = List.map (fun (_, (u, _)) -> u) runs in
  let traced = List.filter_map (fun (_, (_, t)) -> t) runs in
  remove path;
  let replay = if trace then Some (Pb_grid.replay first) else None in
  remove first;
  (* the traced run also sends its first sub-campaigns through the fabric *)
  let fabric_seeds = if trace then List.filteri (fun i _ -> i < 2) seeds else [] in
  let fabric = List.map (fun seed0 -> Pb_fabric.run_rep (Pb_fabric.spec seed0)) fabric_seeds in
  (* ... and runs the fuzz loop and the reducer *)
  let fuzz_bad, fuzz_cells, fuzz_layers =
    if trace then fuzz_side ~seed ~seconds ~candidates:(List.concat_map snd traced)
    else (0, 0, [])
  in
  let traced = List.map fst traced in
  let bad =
    check ~what:"diff_grid table + journal (untraced, traced twins, fabric)" ~workload:"diff_grid"
      ~scale:Pb_grid.scale
      ~reference:(fun seed0 ->
        let ref_path = scratch "grid-ref.jsonl" in
        let r, _ = Pb_grid.run ~jobs:1 ~seed0 ref_path in
        remove ref_path;
        r.Pb_grid.digest)
      (checks seeds
         (List.map (fun (r : Pb_grid.rep) -> r.digest) untraced)
         (List.map (fun (t : Pb_grid.traced) -> t.trep.digest) traced)
      @ List.map2 (fun s (r : Pb_fabric.rep) -> (s, r.digest, None)) fabric_seeds fabric)
    + List.length (List.filter Pb_fabric.starved fabric)
  in
  let replay_cells, replay_bad =
    match replay with
    | Some rp ->
        note "replay of the first traced sub-campaign: %d cells, %d differ from the journal; \
              %d of %d interpreted cells repeat an earlier cell of their kernel"
          rp.rcells rp.mismatches rp.repeats rp.interpreted;
        (rp.rcells, rp.mismatches)
    | None -> (0, 0)
  in
  let per_rep = (List.hd untraced).Pb_grid.cells in
  let layers =
    match (traced, replay) with
    | [], _ | _, None -> []
    | _, Some rp ->
        grid_layers traced rp
        @ Pb_fabric.dist_layers fabric
        @ fuzz_layers
        @ traced_report ~workload:"diff_grid" ~jobs:Pb_grid.jobs
            ~untraced:(List.map (fun (r : Pb_grid.rep) -> r.wall) untraced)
            (List.map (fun (t : Pb_grid.traced) -> (t.trep.wall, t.busy, t.spans)) traced)
  in
  {
    correct = bad = 0 && fuzz_bad = 0 && replay_bad = 0;
    attempted =
      (per_rep * (List.length untraced + List.length traced + List.length fabric))
      + fuzz_cells + replay_cells;
    failed = (per_rep * bad) + (fuzz_cells * fuzz_bad / Pb_fuzz.side_runs) + replay_bad;
    e2e = batch_e2e ~setups:!setups untraced;
    layers;
  }

(* The committed-digest lines for every sub-campaign of a run at
   [seconds], each from a single-runner run. *)
let emit_digests ~workload ~seed ~seconds =
  match workload with
  | "diff_grid" ->
      List.iter
        (fun seed0 ->
          let path = scratch "grid-ref.jsonl" in
          let r, _ = Pb_grid.run ~jobs:1 ~seed0 path in
          remove path;
          note "diff_grid %s %d %s" Pb_grid.scale seed0 r.Pb_grid.digest)
        (List.init (sub_runs ~seconds ~nominal:Pb_grid.nominal_s) (Pb_grid.seed0_of seed))
  | "fuzz" ->
      List.iter
        (fun s ->
          note "fuzz %s %d %s" Pb_fuzz.scale s (fst (Pb_fuzz.run ~jobs:1 ~seed:s ())).Pb_grid.digest)
        (List.init Pb_fuzz.side_runs (Pb_fuzz.seed_of seed))
  | _ -> ()
