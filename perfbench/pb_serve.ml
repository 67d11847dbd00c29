(* serve_mix: a `campaign serve` daemon in its own process, pre-seeded
   with a corpus generated from the seed, driven by one load-generator
   thread over one connection at a time (one connection per request, as
   Sclient does). Phase 1 is a closed loop for throughput; phase 2 an
   open loop at a fixed offered rate, each request timed from when it was
   due.

   The traffic is that of the program's own clients. Per kernel:
   - one /claim, then one /observation per above-threshold config and
     opt level (20), each the cell `campaign client run` reports for the
     claimed kernel, computed here the way it computes it (Driver,
     Majority, Covmap, Triage) at the diff_grid workload's fuel;
   - chosen by hand, not measured from use: one duplicate /kernel (a
     second `campaign client gen` over overlapping seeds, as the CI serve
     smoke runs two) and one dashboard refresh of /bugs, /coverage,
     /corpus and /healthz.
   The corpus holds exactly the kernels the run claims, so every /claim
   returns work. *)

open Pb_util

let serve_routes = [ "claim"; "observation"; "kernel"; "bugs"; "coverage"; "corpus"; "healthz" ]

let threads = 1
let connections = 1

(* kernels claimed per repetition, in each phase *)
let closed_kernels = 80
let open_kernels = 20

(* a claim, the claimed kernel's observations, a duplicate submit and
   four dashboard reads *)
let requests_per_kernel () = 1 + Pb_grid.cells_per_kernel () + 5

(* Offered rate of the open loop, about a quarter of the closed-loop
   rate (~5700 req/s): below half of it, so that a host slowed by co-tenant
   load does not push the loop towards saturation. At 500 req/s the
   daemon sat idle for ~1.8 ms before each request and p50 moved with the
   host's state (141-204 us over three runs, against 109-126 us at 1500
   req/s in the same runs). And the latency limit the open loop is held
   to. *)
let open_rate = 1500.0
let slo_us = 5000.0

(* ------------------------------------------------------------------ *)
(* Inputs: kernels and their observation bodies, all from the seed      *)
(* ------------------------------------------------------------------ *)

type kernel = {
  entry : Corpus.entry;
  text : string;
  observations : (string * Triage.observation option * int list) list;
      (** body, triage observation, coverage indices — one per cell *)
}

let kernel_body k =
  Jsonl.to_string (Jsonl.Obj (Corpus.entry_fields k.entry @ [ ("text", Jsonl.Str k.text) ]))

(* The cells `campaign client run` reports for one kernel: every
   above-threshold config at both opt levels, majority-voted. *)
let observations_of (e : Corpus.entry) tc =
  let prepared = Driver.prepare tc in
  let features = Driver.features_of_prepared prepared in
  let signature = Triage.signature_of_features features in
  let runs =
    List.concat_map
      (fun id ->
        List.map
          (fun opt ->
            let o, st = Driver.run_prepared_stats ?fuel:Pb_grid.fuel (Config.find id) ~opt prepared in
            (id, opt, o, st))
          [ false; true ])
      Config.above_threshold_ids
  in
  let majority = Majority.majority_output (List.map (fun (_, _, o, _) -> o) runs) in
  List.map
    (fun (id, opt, outcome, stats) ->
      let divergent = Majority.is_wrong_code ~majority outcome in
      let cov = Covmap.indices ~features ~config:id ~opt ~divergent ~outcome ~stats in
      let opt_s = if opt then "+" else "-" in
      let cell =
        {
          Journal.index = 0;
          seed = e.Corpus.seed;
          mode = e.Corpus.mode;
          config = id;
          opt = opt_s;
          outcomes = [ outcome ];
          note = "";
        }
      in
      let obs =
        Option.map
          (fun cls ->
            {
              Triage.o_cls = cls;
              o_config = id;
              o_opt = opt_s;
              o_signature = signature;
              o_seed = e.Corpus.seed;
              o_mode = e.Corpus.mode;
              o_hash = e.Corpus.hash;
            })
          (match Majority.bucket_of ~majority outcome with
          | Majority.B_wrong -> Some "wrong-code"
          | Majority.B_bf -> Some "build-failure"
          | Majority.B_crash -> Some "crash"
          | Majority.B_ok | Majority.B_timeout -> None)
      in
      let body =
        Jsonl.to_string
          (Jsonl.Obj
             ([ ("cell", Journal.cell_to_json cell) ]
             @ (match obs with
               | Some o -> [ ("obs", Jsonl.Obj (Triage.observation_fields o)) ]
               | None -> [])
             @ [ ("cov", Jsonl.List (List.map (fun i -> Jsonl.Int i) cov)) ]))
      in
      (body, obs, cov))
    runs

(* the corpus, as `campaign client gen` submits it (modes in turn,
   consecutive seeds), with each kernel's observations, computed on a
   two-runner pool *)
let make_inputs seed =
  let modes = Array.of_list Gen_config.all_modes in
  Pool.with_pool ~jobs:2 (fun pool ->
      Pool.map pool
        ~f:(fun i ->
          let mode = modes.(i mod Array.length modes) in
          let gseed = (seed * 100_000) + i in
          let tc, _ = Generate.generate ~cfg:(Gen_config.scaled mode) ~seed:gseed () in
          let text = Pp.program_to_string tc.Ast.prog in
          let entry =
            {
              Corpus.hash = Corpus.hash_text text;
              seed = gseed;
              mode = Gen_config.mode_name mode;
              cls = "candidate";
              config = 0;
              opt = "-";
            }
          in
          { entry; text; observations = observations_of entry tc })
        (List.init (closed_kernels + open_kernels) Fun.id))

(* ------------------------------------------------------------------ *)
(* The load generator's client: one connection per request              *)
(* ------------------------------------------------------------------ *)

(* Sclient's request, with the connect timed apart from the round trip
   (serve.connect_us, serve.wait_us) *)
type reply = { status : int; body : string; connect_s : float; rt_s : float }

let read_all fd =
  let buf = Bytes.create 65536 and b = Buffer.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b buf 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let request addr ~meth ~path ?(body = "") () =
  let t0 = now () in
  match Netaddr.connect addr with
  | Error _ -> { status = 0; body = ""; connect_s = now () -. t0; rt_s = now () -. t0 }
  | Ok fd ->
      let t1 = now () in
      let raw =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            try
              Netaddr.write_all fd
                (Printf.sprintf
                   "%s %s HTTP/1.1\r\nhost: campaign-serve\r\nconnection: close\r\n\
                    content-type: application/json\r\ncontent-length: %d\r\n\r\n%s"
                   meth path (String.length body) body);
              read_all fd
            with Unix.Unix_error _ -> "")
      in
      let t2 = now () in
      let status =
        try Scanf.sscanf raw "HTTP/1.%_d %d" Fun.id with Scanf.Scan_failure _ | End_of_file | Failure _ -> 0
      in
      let body =
        match Http.head_end raw 0 with
        | Some (_, start) -> String.sub raw start (String.length raw - start)
        | None -> ""
      in
      { status; body; connect_s = t1 -. t0; rt_s = t2 -. t0 }

let ok r = r.status >= 200 && r.status < 300

(* ------------------------------------------------------------------ *)
(* One repetition: fresh daemon, seed, closed loop, open loop, verify   *)
(* ------------------------------------------------------------------ *)

type rep = {
  wall : float;  (** the whole repetition, daemon start to stop *)
  closed_s : float;
  closed_fresh : int;  (** observation cells the daemon accepted in phase 1 *)
  open_lat : float list;  (** seconds from due time to reply *)
  late_s : float;  (** how far behind schedule the generator started a request *)
  replies : (string * reply) list;  (** route, reply — every timed request *)
  requests : int;
  errors : int;  (** failed requests, and claims that returned no work *)
  mismatches : int;
  bugs : int;  (** the daemon's final /bugs count *)
  triage_s : float;  (** the offline Triage.of_observations fold *)
  cpu_s : float;
  rss_kb : int;
  metrics_json : string;
}

let start_daemon ~sock ~state =
  remove state;
  let addr = Netaddr.Unix_sock sock in
  let t0 = now () in
  let d =
    spawn [| cli; "serve"; "--listen"; "unix:" ^ sock; "--state"; state |]
  in
  let rec wait n =
    if n = 0 then failwith "serve daemon did not come up"
    else
      let r = request addr ~meth:"GET" ~path:"/healthz" () in
      if r.status = 200 then now () -. t0
      else begin
        Unix.sleepf 0.001;
        wait (n - 1)
      end
  in
  let setup = try wait 5000 with e -> ignore (terminate d); raise e in
  (d, addr, setup)

(* one daemon start-up: launch to the first /healthz 200 *)
let launch () =
  let sock = scratch "serve.sock" and state = scratch "serve.journal" in
  let d, addr, s = start_daemon ~sock ~state in
  ignore (terminate d);
  remove state;
  Netaddr.cleanup addr;
  s

(* Wait until [due]: sleep while more than a millisecond remains, then
   spin, so that the scheduler's wake-up delay after a sleep is not
   counted in the next request's latency. *)
let wait_until due =
  let rec go () =
    let left = due -. now () in
    if left > 0.002 then begin
      Unix.sleepf (left -. 0.001);
      go ()
    end
    else if left > 0.0 then begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let run_rep (inputs : kernel list) =
  let start = now () in
  let sock = scratch "serve.sock" and state = scratch "serve.journal" in
  let d, addr, _ =
    Span.with_ ~cat:"serve" "launch" (fun () -> start_daemon ~sock ~state)
  in
  let errors = ref 0 and requests = ref 0 in
  let replies = ref [] in
  let send route ~meth ~path ?body () =
    let r = Span.with_ ~cat:"serve" route (fun () -> request addr ~meth ~path ?body ()) in
    incr requests;
    if not (ok r) then incr errors;
    replies := (route, { r with body = "" }) :: !replies;
    r
  in
  let by_hash = Hashtbl.create 256 in
  List.iter
    (fun k ->
      Hashtbl.replace by_hash k.entry.Corpus.hash k;
      let r = Span.with_ ~cat:"serve" "seed" (fun () ->
          request addr ~meth:"POST" ~path:"/kernel" ~body:(kernel_body k) ()) in
      if not (ok r) then incr errors)
    inputs;
  let posted = ref [] and fresh = ref 0 in
  (* one kernel's traffic, as a list of requests to send in order *)
  let cycle () =
    let claimed = ref None in
    let claim () =
      let r = send "claim" ~meth:"POST" ~path:"/claim" () in
      (match Jsonl.of_string r.body with
      | Ok (Jsonl.Obj fields) ->
          Option.iter
            (fun (e : Corpus.entry) -> claimed := Hashtbl.find_opt by_hash e.Corpus.hash)
            (Corpus.entry_of_fields fields)
      | _ -> ());
      if !claimed = None then incr errors;
      r
    in
    let observation i () =
      match !claimed with
      | None -> send "healthz" ~meth:"GET" ~path:"/healthz" ()
      | Some k ->
          let body, obs, cov = List.nth k.observations i in
          posted := (obs, cov) :: !posted;
          let r = send "observation" ~meth:"POST" ~path:"/observation" ~body () in
          (match Jsonl.of_string r.body with
          | Ok j when Option.bind (Jsonl.member "fresh" j) Jsonl.get_bool = Some true -> incr fresh
          | _ -> ());
          r
    in
    let duplicate () =
      match !claimed with
      | Some k -> send "kernel" ~meth:"POST" ~path:"/kernel" ~body:(kernel_body k) ()
      | None -> send "healthz" ~meth:"GET" ~path:"/healthz" ()
    in
    (claim :: List.init (Pb_grid.cells_per_kernel ()) observation)
    @ [
        duplicate;
        (fun () -> send "bugs" ~meth:"GET" ~path:"/bugs" ());
        (fun () -> send "coverage" ~meth:"GET" ~path:"/coverage" ());
        (fun () -> send "corpus" ~meth:"GET" ~path:"/corpus" ());
        (fun () -> send "healthz" ~meth:"GET" ~path:"/healthz" ());
      ]
  in
  (* phase 1: closed loop *)
  let (), closed_s =
    time (fun () ->
        for _ = 1 to closed_kernels do
          List.iter (fun f -> ignore (f ())) (cycle ())
        done)
  in
  let closed_fresh = !fresh in
  (* phase 2: open loop at [open_rate] *)
  let t0 = now () in
  let late = ref 0.0 and j = ref 0 and open_lat = ref [] in
  for _ = 1 to open_kernels do
    List.iter
      (fun f ->
        let due = t0 +. (float !j /. open_rate) in
        incr j;
        let wait = due -. now () in
        if wait > 0.0 then Span.with_ ~cat:"harness" "pace" (fun () -> wait_until due)
        else late := Float.max !late (-.wait);
        let r = f () in
        open_lat := (if ok r then now () -. due else infinity) :: !open_lat)
      (cycle ())
  done;
  (* oracle: the daemon's final /bugs and /coverage against an offline
     fold of the very observations it was sent *)
  let posted = List.rev !posted in
  let buckets, triage_s =
    time (fun () -> Triage.of_observations (List.filter_map fst posted))
  in
  let cov = Covmap.create () in
  List.iter (fun (_, c) -> ignore (Covmap.add_all cov c)) posted;
  let expect_bugs =
    Jsonl.to_string
      (Jsonl.Obj
         [
           ("count", Jsonl.Int (List.length buckets));
           ("buckets", Jsonl.List (List.map Triage.bucket_to_json buckets));
         ])
  in
  let expect_cov =
    Jsonl.to_string
      (Jsonl.Obj [ ("bits", Jsonl.Int (Covmap.count cov)); ("size", Jsonl.Int Covmap.size) ])
  in
  let bugs_r = request addr ~meth:"GET" ~path:"/bugs" () in
  let cov_r = request addr ~meth:"GET" ~path:"/coverage" () in
  let hex_r = request addr ~meth:"GET" ~path:"/coverage/hex" () in
  let mismatches =
    List.length
      (List.filter not
         [ bugs_r.body = expect_bugs; cov_r.body = expect_cov; String.trim hex_r.body = Covmap.to_hex cov ])
  in
  let bugs =
    match Jsonl.of_string bugs_r.body with
    | Ok j -> Option.value ~default:0 (Option.bind (Jsonl.member "count" j) Jsonl.get_int)
    | Error _ -> 0
  in
  let metrics_json = (request addr ~meth:"GET" ~path:"/metrics.json" ()).body in
  (* the daemon's own high-water mark; wait4's figure would also count
     this process's memory at fork time *)
  let rss_kb = hwm_kb d.pid in
  let cpu_s = terminate d in
  remove state;
  Netaddr.cleanup addr;
  {
    wall = now () -. start;
    closed_s;
    closed_fresh;
    open_lat = !open_lat;
    late_s = !late;
    replies = !replies;
    requests = !requests;
    errors = !errors;
    mismatches;
    bugs;
    triage_s;
    cpu_s;
    rss_kb;
    metrics_json;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let json_num path j =
  List.fold_left (fun acc k -> Option.bind acc (Jsonl.member k)) (Some j) path
  |> Fun.flip Option.bind Jsonl.get_int

let serve_layers (r : rep) =
  let j = match Jsonl.of_string r.metrics_json with Ok j -> j | Error _ -> Jsonl.Null in
  let counter k = float (Option.value ~default:0 (json_num [ "counters"; k ] j)) in
  let handler route = json_num [ "histograms"; "serve.request_us." ^ route; "p50" ] j in
  let connect = List.map (fun (_, x) -> x.connect_s) r.replies in
  let served = List.map (fun (_, x) -> x.rt_s -. x.connect_s) r.replies in
  let handled =
    List.map
      (fun (route, _) -> float (Option.value ~default:0 (handler route)))
      r.replies
  in
  List.map (fun route -> ("serve.handler_us." ^ route, float (Option.value ~default:0 (handler route)))) serve_routes
  @ List.map (fun route -> ("serve.requests." ^ route, counter ("serve.requests." ^ route))) serve_routes
  @ [
      ("serve.connect_us", 1e6 *. median connect);
      ("serve.wait_us", Float.max 0.0 ((1e6 *. median served) -. median handled));
      ("serve.shed_frac", counter "serve.shed" /. float (max 1 r.requests));
      ("triage.s", r.triage_s);
    ]

let serve_mix ~seed ~seconds ~trace =
  let cores = Domain.recommended_domain_count () in
  note "load generator: %d thread, %d connection at a time (%d cores); open loop %.0f req/s, \
        limit %.0f us"
    threads connections cores open_rate slo_us;
  if threads > cores || connections > cores then
    failwith "the load generator would use more threads or connections than the host has cores";
  let inputs, inputs_s = time (fun () -> make_inputs seed) in
  note "inputs: %d kernels, %d observation cells, computed in %.1f s" (List.length inputs)
    (List.fold_left (fun a k -> a + List.length k.observations) 0 inputs)
    inputs_s;
  (* The generator and every daemon it starts share one CPU. A request
     then passes from client to daemon and back by a switch on that CPU,
     instead of waking an idle virtual CPU, which a busy hypervisor does
     late: unpinned, the closed loop ran 2.4x slower at 12% host steal
     than at 0.4%. One request is in flight at a time, so the two
     processes seldom have work to do at once. *)
  let cpu = pin_last_cpu () in
  note "load generator and daemon pinned to CPU %d" cpu;
  (* two start-ups after each repetition, so that the set-up samples span
     the run rather than one moment of the host's load; the first two
     unmeasured *)
  ignore (launch ());
  ignore (launch ());
  let setups = ref [] in
  let sample r =
    setups := launch () :: launch () :: !setups;
    r
  in
  (* a traced run pairs every repetition with a traced one, alternating
     which goes first *)
  let reps, traced =
    if not trace then (Pb_workloads.repeat_for seconds (fun () -> sample (run_rep inputs)), [])
    else
      let i = ref 0 in
      List.split
        (Pb_workloads.repeat_for seconds (fun () ->
             incr i;
             let t () = traced (fun () -> run_rep inputs) in
             sample
               (if !i mod 2 = 1 then
                  let u = run_rep inputs in
                  (u, t ())
                else
                  let tr = t () in
                  (run_rep inputs, tr))))
  in
  let all = reps @ List.map fst traced in
  let failed = List.fold_left (fun a r -> a + r.errors + r.mismatches) 0 all in
  let attempted = List.fold_left (fun a r -> a + r.requests + 3) 0 all in
  note "serve oracle: %d of %d repetitions match the offline triage and coverage fold"
    (List.length (List.filter (fun r -> r.mismatches = 0) all))
    (List.length all);
  (* open-loop latencies pooled over the repetitions: a stall of a few
     tens of milliseconds delays a dozen requests, so a tail percentile
     needs many more than one repetition's *)
  let lat = List.concat_map (fun r -> r.open_lat) reps in
  let tp = tail_pct (List.length lat) in
  let cpu = median (List.map (fun r -> r.cpu_s) reps) in
  let bugs = median (List.map (fun r -> float r.bugs) reps) in
  note "per repetition: closed loop %s ms; p99 %s us; daemon peak RSS %s MB"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (1e3 *. r.closed_s)) reps))
    (String.concat " "
       (List.map (fun r -> Printf.sprintf "%.0f" (1e6 *. percentile r.open_lat 99.0)) reps))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.1f" (float r.rss_kb /. 1024.0)) reps));
  note "%d repetitions, %d open-loop latencies (tail percentile p%d), %d set-ups, generator at \
        most %.1f ms late"
    (List.length reps) (List.length lat) tp (List.length !setups)
    (1e3 *. List.fold_left (fun a r -> Float.max a r.late_s) 0.0 reps);
  let e2e =
    [
      ("setup_s", median !setups);
      ("wall_s", median (List.map (fun r -> r.closed_s) reps));
      ("cells_per_s", median (List.map (fun r -> float r.closed_fresh /. r.closed_s) reps));
      ("cpu_s", cpu);
      ("peak_rss_mb", float (List.fold_left (fun a r -> max a r.rss_kb) 0 reps) /. 1024.0);
      ("distinct_bugs", bugs);
      ("bugs_per_cpu_s", bugs /. cpu);
      ( "req_per_s",
        median (List.map (fun r -> float (closed_kernels * requests_per_kernel ()) /. r.closed_s) reps) );
      ("p50_us", 1e6 *. percentile lat 50.0);
      ("p99_us", 1e6 *. percentile lat (float tp));
    ]
  in
  (* a refused or failed request counts as over the limit *)
  let slo_miss =
    float (List.length (List.filter (fun l -> l *. 1e6 > slo_us) lat)) /. float (List.length lat)
  in
  let layers =
    ("serve.slo_miss_frac", slo_miss)
    ::
    match List.rev traced with
    | [] -> serve_layers (List.hd (List.rev reps))
    | (r, _) :: _ ->
        serve_layers r
        @ Pb_workloads.traced_report ~workload:"serve_mix" ~jobs:1
            ~untraced:(List.map (fun r -> r.wall) reps)
            (List.map (fun (r, spans) -> (r.wall, [], spans)) traced)
  in
  { Pb_workloads.correct = failed = 0; attempted; failed; e2e; layers }
