(* The distributed fabric, measured in diff_grid's traced run: the
   diff_grid spec, coordinated in this process (Coordinator.serve, leases
   sized as `campaign coordinate` sizes them by default) and executed by
   two `campaign worker -j 1` processes over a unix socket; the final
   merge is the ordinary local run replaying the collected cells
   (Spec.run_local ~resume). The merged table and journal must equal the
   single-process run's, and both workers must receive cells.

   It is not a workload of its own: a fabric sub-campaign costs twice a
   local one (every worker regenerates and prefilters the whole grid, and
   so does the merge), so four workloads did not fit the benchmark's run
   budget, and over ten seeds its per-kernel latency spread 0.31 of its
   median. *)

open Pb_util

let workers = 2
let merge_jobs = 2

type rep = {
  cells : int;
  digest : string;
  setup : float;  (** serve start to every worker connected *)
  worker_cells : int list;
  lease_ms : float list;  (** grant to the arrival of the lease's last cell *)
  fabric_s : float;  (** every worker connected to the last cell collected *)
  sync_bytes : int;  (** wire bytes both ways *)
  merge_s : float;
}

let spec seed0 =
  match Spec.make ~campaign:"table4" ~n:Pb_grid.per_mode ~seed0 ?fuel:Pb_grid.fuel () with
  | Ok s -> s
  | Error m -> failwith m

let run_rep spec =
  let total = Spec.total_cells spec in
  (* `campaign coordinate`'s default lease: the grid split twice per worker *)
  let chunk = max 1 (total / (workers * 2)) in
  let sock = scratch "fabric.sock" in
  let addr = Proto.Unix_sock sock in
  let fleet = Fleet.create ~total ~now:(Mclock.now_ns ()) () in
  let children = ref [] in
  let joined = ref 0 and t_joined = ref 0.0 in
  let grants = Hashtbl.create 16 and arrived = Hashtbl.create 1024 in
  let t0 = now () in
  (* the workers start the moment the coordinator's socket exists, so
     set-up is their start and handshake, not a select tick *)
  let starter =
    Thread.create
      (fun () ->
        while not (Sys.file_exists sock) do
          Thread.delay 0.001
        done;
        children :=
          List.init workers (fun _ ->
              spawn [| cli; "worker"; "--connect"; "unix:" ^ sock; "-j"; "1" |]))
      ()
  in
  let on_event = function
    | Coordinator.Worker_joined _ ->
        incr joined;
        if !joined = workers then t_joined := now ()
    | Coordinator.Lease_granted (l, _) ->
        Hashtbl.replace grants l.Lease.lease_id (now (), l.Lease.lo, l.Lease.hi)
    | _ -> ()
  in
  let on_cell (c : Journal.cell) = Hashtbl.replace arrived c.Journal.index (now ()) in
  let collected =
    match Coordinator.serve ~addr ~spec ~workers ~chunk ~fleet ~on_event ~on_cell () with
    | Ok cells -> cells
    | Error e -> failwith ("coordinator: " ^ e)
  in
  Thread.join starter;
  let t_collected = now () in
  let snap =
    Fleet.snapshot fleet ~now:(Mclock.now_ns ()) ~collected:(List.length collected) ~in_flight:0
  in
  let path = scratch "fabric.jsonl" in
  let w = Journal.create ~path (Spec.header spec) in
  let table, merge_s =
    time (fun () ->
        match Spec.run_local ~jobs:merge_jobs ~sink:(Journal.write_cell w) ~resume:collected spec with
        | Spec.Table t -> t
        | Spec.Fuzz _ -> "")
  in
  Journal.commit w;
  List.iter (fun c -> ignore (reap c)) !children;
  Netaddr.cleanup addr;
  let digest = Pb_grid.digest_of ~table ~journal:path in
  remove path;
  let lease_ms =
    Hashtbl.fold
      (fun _ (tg, lo, hi) acc ->
        let last = ref tg in
        for i = lo to hi - 1 do
          Option.iter (fun t -> last := Float.max !last t) (Hashtbl.find_opt arrived i)
        done;
        (1e3 *. (!last -. tg)) :: acc)
      grants []
  in
  {
    cells = total;
    digest;
    setup = !t_joined -. t0;
    worker_cells = List.map (fun (r : Fleet.row) -> r.Fleet.cells) snap.Fleet.rows;
    lease_ms;
    fabric_s = t_collected -. !t_joined;
    sync_bytes =
      List.fold_left
        (fun a (r : Fleet.row) -> a + r.Fleet.bytes_in + r.Fleet.bytes_out)
        0 snap.Fleet.rows;
    merge_s;
  }

(* a run in which a worker got no cells did not distribute *)
let starved r = List.length r.worker_cells < workers || List.mem 0 r.worker_cells

let dist_layers reps =
  let n = float (List.length reps) in
  let mean f = sum (List.map f reps) /. n in
  let lease = List.concat_map (fun r -> r.lease_ms) reps in
  note "fabric: per-worker cells (leases) %s; set-up %.4f s"
    (String.concat " "
       (List.map
          (fun r ->
            Printf.sprintf "%s(%d)"
              (String.concat "/" (List.map string_of_int r.worker_cells))
              (List.length r.lease_ms))
          reps))
    (mean (fun r -> r.setup));
  [
    ("dist.lease_ms_p50", percentile lease 50.0);
    (* a few leases per sub-campaign: nearest-rank p99 is the slowest *)
    ("dist.lease_ms_p99", percentile lease 99.0);
    ("dist.sync_bytes", mean (fun r -> float r.sync_bytes));
    ( "dist.worker_busy_frac",
      sum lease /. 1e3 /. (float workers *. sum (List.map (fun r -> r.fabric_s) reps)) );
    ( "dist.worker_min_share",
      mean (fun r -> float (List.fold_left min max_int r.worker_cells) /. float r.cells) );
    ("dist.merge_s", mean (fun r -> r.merge_s));
  ]
