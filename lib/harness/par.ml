type ('a, 'r) verdict = Accept of 'a | Reject of 'r

let collect pool ~n ~seed0 ~classify =
  let batch = max 8 (2 * Pool.jobs pool) in
  (* scan verdicts in seed order; stop at the n-th acceptance so discard
     tallies match the sequential loop exactly *)
  let rec go seed acc rejects need =
    if need = 0 then (List.rev acc, List.rev rejects)
    else
      let seeds = List.init batch (fun i -> seed + i) in
      let verdicts = Pool.map pool ~f:(fun s -> classify ~seed:s) seeds in
      scan (seed + batch) acc rejects need verdicts
  and scan next_seed acc rejects need = function
    | _ when need = 0 -> (List.rev acc, List.rev rejects)
    | [] -> go next_seed acc rejects need
    | Accept a :: rest -> scan next_seed (a :: acc) rejects (need - 1) rest
    | Reject r :: rest -> scan next_seed acc (r :: rejects) need rest
  in
  if n <= 0 then ([], []) else go seed0 [] [] n

let count rejects ~tag = List.length (List.filter (fun r -> r = tag) rejects)

(* ------------------------------------------------------------------ *)
(* Deterministic campaign metrics                                      *)
(* ------------------------------------------------------------------ *)

(* These totals are fed exclusively from the fixed (kernel, config, opt)
   cell grid — never from [collect]'s generation batches, whose evaluated
   seed set depends on the pool size — so they are [-j]-invariant. *)
let m_cells = Metrics.counter "cells.completed"
let m_steps = Metrics.counter "interp.steps"
let m_barriers = Metrics.counter "interp.barriers"
let m_atomics = Metrics.counter "interp.atomics"
let m_race_checks = Metrics.counter "interp.race_checks"
let h_steps = Metrics.histogram "interp.steps_per_cell"

let outcome_counter =
  let by_tag =
    List.map
      (fun tag -> (tag, Metrics.counter ("outcomes." ^ tag)))
      [ "ok"; "bf"; "c"; "to"; "mc"; "ub" ]
  in
  fun o -> List.assoc (Outcome.short_tag o) by_tag

let record_cell (st : Interp.stats) outcomes =
  Metrics.incr m_cells;
  Metrics.add m_steps st.Interp.steps;
  Metrics.add m_barriers st.Interp.barriers;
  Metrics.add m_atomics st.Interp.atomics;
  Metrics.add m_race_checks st.Interp.race_checks;
  Metrics.observe h_steps st.Interp.steps;
  List.iter Costprof.record st.Interp.prof;
  List.iter (fun o -> Metrics.incr (outcome_counter o)) outcomes

let bucket_counter =
  let by_bucket =
    List.map
      (fun b -> (b, Metrics.counter ("cells.class." ^ Majority.bucket_name b)))
      [ Majority.B_wrong; B_ok; B_bf; B_crash; B_timeout ]
  in
  fun b -> List.assoc b by_bucket

let record_bucket b = Metrics.incr (bucket_counter b)

let crash_of_exn e =
  Outcome.Crash ("harness: uncaught exception: " ^ Printexc.to_string e)

(* The cell engine: tasks [0 .. n-1], each either replayed by [lookup]
   (never scheduled) or computed by [f] on the pool. [sink] sees the
   merged sequence (replayed + fresh) in global task order: a fresh
   result at index g is only emitted once every cell before g is
   available, and replayed cells ride along in the same prefix flush. *)
let run_resumable pool ?sink ~lookup ~f n =
  let results = Array.init n lookup in
  let missing =
    List.init n Fun.id
    |> List.filter (fun i -> results.(i) = None)
    |> Array.of_list
  in
  let next = ref 0 in
  let flush () =
    match sink with
    | None -> ()
    | Some emit ->
        while !next < n && results.(!next) <> None do
          (match results.(!next) with
          | Some r -> emit !next r
          | None -> assert false);
          incr next
        done
  in
  flush ();
  let on_result =
    Option.map
      (fun _ mi r ->
        results.(missing.(mi)) <- Some r;
        flush ())
      sink
  in
  (* [f] isolates non-fatal exceptions itself; only fatal exhaustion
     reaches the pool, which re-raises it *)
  let fresh =
    Pool.map_isolated ?on_result pool ~f ~on_error:raise (Array.to_list missing)
  in
  List.iteri (fun mi r -> results.(missing.(mi)) <- Some r) fresh;
  flush ();
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) results)

type ('t, 'r) codec = {
  key : 't -> string * int * int * string;
  encode : 't -> 'r -> Outcome.t list * string;
  decode : 't -> Journal.cell -> ('r * Interp.stats) option;
  placeholder : 't -> 'r;
  exec : flow:int -> 't -> 'r * Interp.stats;
  on_error : 't -> exn -> 'r;
}

let outside_shard = Outcome.Crash "skipped: outside shard"

let grid pool ?sink ?resume ?exec_filter codec =
  let journal =
    match resume with
    | None | Some [] -> None
    | Some cells -> Some (Journal.index_cells cells)
  in
  fun ~base tasks ->
    let tasks = Array.of_list tasks in
    let replayed t =
      Option.bind journal (fun tbl ->
          Option.bind (Hashtbl.find_opt tbl (codec.key t)) (codec.decode t))
    in
    (* a distributed worker executes only its leased shard: every other
       non-replayed cell degrades to an instant placeholder, never sent
       anywhere — only the shard's real cells leave this process *)
    let lookup i =
      match (replayed tasks.(i), exec_filter) with
      | (Some _ as r), _ -> r
      | None, Some keep when not (keep (base + i)) ->
          Some (codec.placeholder tasks.(i), Interp.zero_stats)
      | None, _ -> None
    in
    let sink =
      Option.map
        (fun emit i (r, _) ->
          let t = tasks.(i) in
          let mode, seed, config, opt = codec.key t in
          let outcomes, note = codec.encode t r in
          emit
            { Journal.index = base + i; seed; mode; config; opt; outcomes; note })
        sink
    in
    (* the global cell index is both the journal index and the causal
       flow id stitching exec spans to coordinator leases *)
    let f i =
      let t = tasks.(i) in
      try codec.exec ~flow:(base + i) t
      with e when not (Pool.is_fatal e) ->
        (codec.on_error t e, Interp.zero_stats)
    in
    (* metrics fold over the merged list, in task order: replayed cells
       count their outcomes with their journalled (usually zero) work *)
    List.mapi
      (fun i (r, stats) ->
        record_cell stats (fst (codec.encode tasks.(i) r));
        r)
      (run_resumable pool ?sink ~lookup ~f (Array.length tasks))

let chunk size xs =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
        let c, rest = take size [] xs in
        go (c :: acc) rest
  in
  if size <= 0 then invalid_arg "Par.chunk" else go [] xs
