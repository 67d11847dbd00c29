(* The campaign grid contract, pinned for all five campaigns through the
   same entry point a fabric worker uses ({!Spec.run_local}):

   - resume from journal prefixes {0, 1, n-1} reproduces the reference
     journal bytes and summary;
   - two disjoint [exec_filter] halves, whose sinked cells are merged
     back through [~resume], reproduce the same bytes;
   - [Spec.total_cells] is the number of cells the driver sinks;
   - with tracing on, every cell's exec spans carry the cell's journal
     index as their causal flow id. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let spec campaign =
  let n, variants =
    match campaign with
    | "fuzz" -> (4, None)
    | "table3" | "table5" -> (1, Some 1)
    | _ -> (1, None)
  in
  match
    Spec.make ~campaign ~n ~fuel:2000 ~config_ids:[ 1; 12 ] ?variants
      ~gen_size:2 ()
  with
  | Ok s -> s
  | Error m -> Alcotest.failf "spec: %s" m

let summary_text = function
  | Spec.Table s -> s
  | Spec.Fuzz r -> Fuzz_loop.to_table r

(* run [spec] journalling into [path] — fresh, or resumed from whatever
   prefix [path] holds — and return the summary and the journal bytes *)
let journalled ?(resume = false) spec path =
  let header = Spec.header spec in
  let w, replay =
    if resume then
      match Journal.resume ~path header with
      | Ok r -> r
      | Error e -> Alcotest.fail (Journal.error_to_string e)
    else (Journal.create ~path header, [])
  in
  let cells = ref [] in
  let summary =
    Spec.run_local ~jobs:1
      ~sink:(fun c ->
        cells := c :: !cells;
        Journal.write_cell w c)
      ~resume:replay spec
  in
  Journal.commit w;
  (summary_text summary, read_file path, List.rev !cells)

let write_prefix spec path cells =
  let w = Journal.create ~path (Spec.header spec) in
  List.iter (Journal.write_cell w) cells;
  Journal.commit w

let test_contract campaign () =
  let spec = spec campaign in
  let path = Filename.temp_file "grid" ".jsonl" in
  let ref_summary, ref_bytes, cells = journalled spec path in
  let n = List.length cells in
  Alcotest.(check int) "Spec.total_cells = sinked cells"
    (Spec.total_cells spec) n;
  Alcotest.(check (list int))
    "cells sinked in global task order" (List.init n Fun.id)
    (List.map (fun c -> c.Journal.index) cells);
  (* resume from interruption points *)
  List.iter
    (fun k ->
      write_prefix spec path (List.filteri (fun i _ -> i < k) cells);
      let summary, bytes, _ = journalled ~resume:true spec path in
      Alcotest.(check string)
        (Printf.sprintf "summary after resume from %d/%d" k n)
        ref_summary summary;
      Alcotest.(check string)
        (Printf.sprintf "journal bytes after resume from %d/%d" k n)
        ref_bytes bytes)
    [ 0; 1; n - 1 ];
  (* two disjoint shards, the way fabric workers run them: a fuzzing
     grid splits at its last generation, whose shard first receives every
     cell below it; a table grid is one dependency-free generation *)
  let mid, synced =
    match Spec.boundaries spec with
    | [ _ ] -> (n / 2, fun _ -> [])
    | gens -> (fst (List.nth gens (List.length gens - 1)), Fun.id)
  in
  let shard ~lo ~hi ~known =
    let sinked = ref [] in
    let (_ : Spec.summary) =
      Spec.run_local ~jobs:1
        ~sink:(fun c -> sinked := c :: !sinked)
        ~resume:known
        ~exec_filter:(fun i -> i >= lo && i < hi)
        spec
    in
    List.filter
      (fun c -> c.Journal.index >= lo && c.Journal.index < hi)
      (List.rev !sinked)
  in
  let low = shard ~lo:0 ~hi:mid ~known:[] in
  let high = shard ~lo:mid ~hi:n ~known:(synced low) in
  Alcotest.(check int) "shards cover the grid" n
    (List.length low + List.length high);
  write_prefix spec path (high @ low);
  let summary, bytes, _ = journalled ~resume:true spec path in
  Alcotest.(check string) "summary after merging shards" ref_summary summary;
  Alcotest.(check string) "journal bytes after merging shards" ref_bytes bytes;
  Sys.remove path

(* generation-phase filter runs are not cells and carry no flow id:
   table4's prefilter and table5's liveness filter, both on
   configuration 1 with optimisations *)
let filter_run campaign (s : Span.t) =
  (campaign = "table4" || campaign = "table5") && s.Span.name = "exec:1+"

let test_flows campaign () =
  let spec = spec campaign in
  let sinked = Hashtbl.create 64 in
  Span.reset ();
  Span.enable ();
  let (_ : Spec.summary) =
    Fun.protect ~finally:Span.disable (fun () ->
        Spec.run_local ~jobs:1
          ~sink:(fun c -> Hashtbl.replace sinked c.Journal.index ())
          spec)
  in
  let exec =
    List.filter (fun (s : Span.t) -> s.Span.cat = "exec") (Span.drain ())
  in
  let cell_exec = List.filter (fun s -> not (filter_run campaign s)) exec in
  Alcotest.(check bool) "cells were executed" true (cell_exec <> []);
  List.iter
    (fun (s : Span.t) ->
      if not (Hashtbl.mem sinked s.Span.flow) then
        Alcotest.failf "%s span %s has flow %d, no sinked cell" campaign
          s.Span.name s.Span.flow)
    cell_exec

let () =
  let per_campaign f =
    List.map (fun c -> Alcotest.test_case c `Slow (f c)) Spec.campaigns
  in
  Alcotest.run "grid"
    [
      ("contract", per_campaign test_contract);
      ("flows", per_campaign test_flows);
    ]
