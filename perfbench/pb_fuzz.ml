(* The coverage-guided fuzz loop (Fuzz_loop.run, feedback on, two-runner
   pool), run in diff_grid's traced run. From outside the loop it then
   times the mutator (Mutator.mutate) over the seeds the loop admitted,
   and the reducer (Reduce.reduce) over the traced grid's wrong-code
   kernels with the predicate of `campaign reduce`.

   It is not a timed workload: its wall time follows the host's load more
   than any other (one co-tenant burst stretched it by half; over ten
   seeds its per-kernel latency spread 0.44 of its median). The loop runs
   with minimization off: the reducer's race-checked gate runs every
   candidate on the reference device at the default step budget whatever
   the campaign's fuel, so 8-kernel minimizing runs took from 5 s to 97 s
   by seed (two-core host). *)

open Pb_util

let jobs = 2
let budget = 16
let fuel = Pb_grid.fuel
let gen_size = Fuzz_loop.default_gen_size

(* sub-run [i] of seed [seed]: disjoint generator-seed ranges *)
let seed_of seed i = 1 + (seed * 100_000) + (i * 1_000)
let scale = Printf.sprintf "b%d-f%d" budget (Option.get fuel)

(* fuzz sub-runs per traced run *)
let side_runs = 4

let digest_of buckets covmap =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun b -> Jsonl.to_string (Triage.bucket_to_json b)) buckets)
       ^ "\n" ^ Covmap.to_hex covmap))

let run ?(jobs = jobs) ~seed () =
  let g = Pb_grid.gaps ~per_kernel:(Fuzz_loop.cells_per_kernel ()) in
  let c0 = cpu_self () in
  let t0 = now () in
  g.last <- t0;
  let r =
    Fuzz_loop.run ~jobs ?fuel ~budget ~seed ~gen_size ~feedback:true ~minimize:false
      ~sink:(fun _ -> Pb_grid.tick g)
      ()
  in
  let wall = now () -. t0 in
  ( {
      Pb_grid.wall;
      cpu = cpu_self () -. c0;
      cells = r.Fuzz_loop.cells_run;
      kernels = r.Fuzz_loop.kernels_run;
      kgaps = g.gaps;
      bugs = List.length r.Fuzz_loop.buckets;
      digest = digest_of r.Fuzz_loop.buckets r.Fuzz_loop.covmap;
    },
    r )

(* Seconds per Mutator.mutate call: [rounds] calls per admitted seed,
   each drawing from its own stream, the next seed as donor. *)
let mutate_s (entries : Seedpool.entry list) =
  let rounds = 4 in
  let seeds = Array.of_list (List.map (fun e -> e.Seedpool.tc) entries) in
  let n = Array.length seeds and total = ref 0.0 in
  Array.iteri
    (fun i tc ->
      for r = 0 to rounds - 1 do
        let rng = Rng.make ((i * rounds) + r) in
        let donor () = Some seeds.((i + 1) mod n) in
        total := !total +. snd (time (fun () -> Mutator.mutate ~rng ~donor tc))
      done)
    seeds;
  !total /. float (max 1 (n * rounds))

(* ------------------------------------------------------------------ *)
(* The reducer                                                         *)
(* ------------------------------------------------------------------ *)

(* candidate-variant budget per kernel (`campaign reduce --max-attempts`),
   so that one reduction takes about a second *)
let attempts = 80

(* The first wrong-code cell of every kernel of a diff_grid journal, as
   (mode, seed, config, opt): majority-voted over the kernel's cells. *)
let wrong_code_cells path =
  let cells =
    match Journal.load ~path with Ok (_, cells, _) -> cells | Error _ -> []
  in
  List.filter_map
    (fun kcells ->
      let outcomes = List.concat_map (fun (c : Journal.cell) -> c.Journal.outcomes) kcells in
      let majority = Majority.majority_output outcomes in
      List.find_opt
        (fun (c : Journal.cell) ->
          match c.Journal.outcomes with
          | [ o ] -> Majority.is_wrong_code ~majority o
          | _ -> false)
        kcells
      |> Option.map (fun (c : Journal.cell) ->
             (c.Journal.mode, c.Journal.seed, c.Journal.config, c.Journal.opt = "+")))
    (Par.chunk (Pb_grid.cells_per_kernel ()) cells)

exception Out_of_time

type reduced = {
  reduced : int;  (** kernels reduced to a fixpoint or the attempt budget *)
  cut : int;  (** reductions stopped at the time limit *)
  tried : int;  (** candidate variants *)
  accepted : int;
  reduce_s : float;  (** inside Reduce.reduce, reductions that ended *)
  predicate_s : float;  (** ... of which inside the predicate *)
}

(* Reduce each candidate with `campaign reduce`'s predicate — the
   configuration still disagrees with the reference device — starting no
   reduction after [cap] seconds and stopping one that runs past twice
   [cap]. *)
let reduce ~cap candidates =
  let t0 = now () in
  let reduced = ref 0 and cut = ref 0 and tried = ref 0 and accepted = ref 0 in
  let reduce_s = ref 0.0 and predicate_s = ref 0.0 in
  List.iter
    (fun (mode, seed, config, opt) ->
      if now () -. t0 < cap then begin
        let mode = Option.get (Gen_config.mode_of_string mode) in
        let tc, _ = Generate.generate ~cfg:(Gen_config.scaled mode) ~seed () in
        let c = Config.find config in
        let pred = ref 0.0 in
        let interesting tc =
          let r, dt =
            time (fun () ->
                match (Driver.reference_outcome tc, Driver.run c ~opt tc) with
                | Outcome.Success a, Outcome.Success b -> not (String.equal a b)
                | _ -> false)
          in
          pred := !pred +. dt;
          if now () -. t0 > 2.0 *. cap then raise Out_of_time;
          r
        in
        match interesting tc with
        | false -> ()
        | exception Out_of_time -> incr cut
        | true -> (
            pred := 0.0;
            match time (fun () -> Reduce.reduce ~max_attempts:attempts ~interesting tc) with
            | (_, st), dt ->
                reduce_s := !reduce_s +. dt;
                predicate_s := !predicate_s +. !pred;
                incr reduced;
                tried := !tried + st.Reduce.attempts;
                accepted := !accepted + st.Reduce.accepted
            | exception Out_of_time -> incr cut)
      end)
    candidates;
  {
    reduced = !reduced;
    cut = !cut;
    tried = !tried;
    accepted = !accepted;
    reduce_s = !reduce_s;
    predicate_s = !predicate_s;
  }
