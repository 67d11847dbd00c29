(* The repository benchmark program.

     pb.exe --workload <diff_grid|serve_mix>
            --seed <n> --seconds <s> --trace <0|1>

   Runs one workload for about [--seconds], checks the program's outputs,
   prints a human-readable summary and, as its last line, one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer metrics of a
   separate traced run (--trace 1). Exits non-zero when an output check
   fails. Run it from the repository root; scratch files go to
   _perfbench/.

   With --digests it instead prints the committed-digest lines
   (perfbench/digests.txt) of every sub-campaign a run with the same
   --seed and --seconds makes, each from a single-runner run. *)

open Pb_util

(* end-to-end metrics, every workload reports all of them. p99_us is
   measured too but reported beside them and among the per-layer metrics:
   serve_mix's open-loop p99 follows the host's hypervisor preemption and
   co-tenant load (over ten seeds its quartile spread ran from 0.29 to
   0.75 of its median, two-core VM), so it cannot carry a regression bound
   of at most 0.25. *)
let end_to_end =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("cells_per_s", "1/s"); ("cpu_s", "s");
    ("peak_rss_mb", "MB"); ("distinct_bugs", "count"); ("bugs_per_cpu_s", "1/s");
    ("req_per_s", "1/s"); ("p50_us", "us");
  ]

(* per-layer metrics of the traced run; a layer a workload does not
   exercise reports 0 *)
let per_layer =
  [
    ("p99_us", "us"); ("clsmith.generate_s", "s"); ("clsmith.discard_frac", "frac");
    ("vendors.prepare_s", "s"); ("vendors.cell_s", "s"); ("vendors.gated_frac", "frac");
    ("opt.const_fold_s", "s"); ("opt.simplify_s", "s"); ("opt.unroll_s", "s");
    ("opt.dce_s", "s"); ("opt.size_ratio", "frac");
    ("ocl_vm.exec_s", "s"); ("ocl_vm.steps", "count"); ("ocl_vm.ns_per_step", "ns");
    ("ocl_vm.barriers", "count"); ("ocl_vm.atomics", "count");
    ("ocl_vm.race_checks", "count"); ("ocl_vm.repeat_frac", "frac");
    ("harness.vote_s", "s"); ("exec.busy_frac", "frac");
    ("store.append_s", "s"); ("store.bytes", "B");
    ("fuzz.mutate_s", "s"); ("fuzz.admit_frac", "frac"); ("reducer.s", "s");
    ("reducer.predicate_s", "s"); ("reducer.gate_s", "s"); ("reducer.attempts", "count");
    ("reducer.accept_frac", "frac"); ("triage.s", "s");
    ("serve.connect_us", "us");
  ]
  @ List.map (fun r -> ("serve.handler_us." ^ r, "us")) Pb_serve.serve_routes
  @ List.map (fun r -> ("serve.requests." ^ r, "count")) Pb_serve.serve_routes
  @ [
      ("serve.wait_us", "us"); ("serve.shed_frac", "frac"); ("serve.slo_miss_frac", "frac");
      ("dist.lease_ms_p50", "ms"); ("dist.lease_ms_p99", "ms"); ("dist.sync_bytes", "B");
      ("dist.worker_busy_frac", "frac"); ("dist.worker_min_share", "frac");
      ("dist.merge_s", "s"); ("fail_frac", "frac");
    ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s")) Pb_workloads.layers
  @ [
      ("exec.idle_s", "s"); ("trace.rollup_s", "s"); ("trace.unattributed_s", "s");
      ("trace.untraced_wall_s", "s"); ("trace.traced_wall_s", "s"); ("trace.overhead_s", "s");
    ]

let pick names values =
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    names

let usage () =
  prerr_endline
    "usage: pb.exe --workload diff_grid|serve_mix \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let digests = ref false in
  let rec parse = function
    | "--digests" :: rest -> digests := true; parse rest
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  if !digests then begin
    Pb_workloads.emit_digests ~workload:!workload ~seed:!seed ~seconds:!seconds;
    exit 0
  end;
  let run =
    match !workload with
    | "diff_grid" -> Pb_workloads.diff_grid
    | "serve_mix" -> Pb_serve.serve_mix
    | _ -> usage ()
  in
  let steal0, total0 = cpu_ticks () in
  let r : Pb_workloads.result =
    run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  in
  let steal1, total1 = cpu_ticks () in
  (* timings are as measured; this says how much of the host's CPU time
     the hypervisor gave to others meanwhile *)
  note "host steal: %.1f%% of CPU time during the run"
    (100.0 *. float (steal1 - steal0) /. float (max 1 (total1 - total0)));
  let fail_frac = float r.failed /. float (max 1 r.attempted) in
  let p99 = Option.value ~default:0.0 (List.assoc_opt "p99_us" r.e2e) in
  let metrics =
    if !trace = 1 then
      pick per_layer (("fail_frac", fail_frac) :: ("p99_us", p99) :: r.Pb_workloads.layers)
    else pick end_to_end r.Pb_workloads.e2e
  in
  (* fail_frac and slo_miss_frac read 0 on a healthy run, so they are
     printed beside the result (and are per-layer metrics of the traced
     run) rather than bounded end-to-end metrics; so is p99_us (see
     [end_to_end]) *)
  note "fail_frac %.6f  slo_miss_frac %.6f  (%d of %d operations failed)  p99_us %.1f" fail_frac
    (Option.value ~default:0.0 (List.assoc_opt "serve.slo_miss_frac" r.layers))
    r.failed r.attempted p99;
  List.iter (fun x -> note "  %-30s %16.6f %s" x.name x.value x.unit_) metrics;
  print_endline
    (result_line
       { correct = r.correct; attempted = max 1 r.attempted; failed = r.failed; metrics });
  exit (if r.correct then 0 else 1)
