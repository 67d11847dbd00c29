(* Shared plumbing of the benchmark program: clocks, order statistics,
   child processes, the result line, and the spans a traced run collects
   with the program's own tracer. *)

let now () = Int64.to_float (Mclock.now_ns ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile xs p =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (ceil (p /. 100.0 *. float n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* The highest whole percentile, at most 99, that still has at least ten
   samples beyond it — the tail percentile a run can actually resolve. *)
let tail_pct n =
  let rec go p =
    if p <= 50 then 50
    else
      let rank = int_of_float (ceil (float p /. 100.0 *. float n)) in
      if n - rank >= 10 then p else go (p - 1)
  in
  go 99

let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* Host resources                                                      *)
(* ------------------------------------------------------------------ *)

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* (steal, total) CPU ticks of the host so far, summed over CPUs: the
   time the hypervisor ran something else on this machine's CPUs *)
let cpu_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
        let v = List.map int_of_string fields in
        (List.nth v 7, List.fold_left ( + ) 0 v)
    | _ -> (0, 0)
  with Sys_error _ | End_of_file | Failure _ | Invalid_argument _ -> (0, 0)

(* VmHWM of a live process, in KiB (0 when unreadable) *)
let hwm_kb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" Fun.id
          | _ -> go ()
          | exception End_of_file -> 0
        in
        go ())
  with Sys_error _ -> 0

(* reap a child; its CPU seconds *)
external wait4 : int -> float = "pb_wait4"

(* Pin the calling domain's thread, and every process it starts from
   then on, to one CPU; the CPU, or -1 when the host refuses *)
external pin_last_cpu : unit -> int = "pb_pin_last_cpu"

type child = { pid : int }


let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

(* children not yet reaped; killed and reaped at exit, so a run that
   fails half-way leaves no daemon or worker behind *)
let live : child list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun c ->
          (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (wait4 c.pid))
        !live)

let spawn argv =
  let null = Lazy.force devnull in
  let c = { pid = Unix.create_process argv.(0) argv null null null } in
  live := c :: !live;
  c

let reap c =
  let cpu_s = wait4 c.pid in
  live := List.filter (fun x -> x.pid <> c.pid) !live;
  cpu_s

let terminate c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap c

(* ------------------------------------------------------------------ *)
(* Scratch files, all under the benchmark's own directory               *)
(* ------------------------------------------------------------------ *)

let work_dir = "_perfbench"

(* the campaign CLI, as dune builds it from the repository root *)
let cli = "_build/default/bin/campaign_cli.exe"

let scratch name =
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let p = Filename.concat work_dir (Printf.sprintf "%s.%d" name (Unix.getpid ())) in
  (try Sys.remove p with Sys_error _ -> ());
  p

let remove p = try Sys.remove p with Sys_error _ -> ()

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* JSON has no infinity: a latency that never ended (a failed request)
   prints as 1e18 *)
let json_float v =
  let v = if Float.is_finite v then v else 1e18 in
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line o =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (json_float x.value) x.unit_)
          o.metrics))

let note fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

(* ------------------------------------------------------------------ *)
(* Spans of the program's own tracer (Span), as a traced run drains     *)
(* them                                                                *)
(* ------------------------------------------------------------------ *)

let dur_s (s : Span.t) = Int64.to_float s.Span.dur_ns /. 1e9

(* Every span with its self time — its duration minus that of the spans
   directly nested in it on the same domain — and whether it is the
   outermost span of a pool task. Span records no parent; spans taken
   with Span.with_ nest properly on their domain, so the parent is the
   innermost earlier span whose interval still covers the start. *)
let self_times spans =
  let by_dom = Hashtbl.create 4 in
  List.iter
    (fun (s : Span.t) ->
      Hashtbl.replace by_dom s.Span.domain
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_dom s.Span.domain)))
    spans;
  Hashtbl.fold
    (fun _ ss acc ->
      let ss =
        List.sort
          (fun (a : Span.t) (b : Span.t) ->
            match Int64.compare a.Span.t0_ns b.Span.t0_ns with
            | 0 -> Int64.compare b.Span.dur_ns a.Span.dur_ns
            | c -> c)
          ss
      in
      (* open spans, innermost first: span, end, time of its children,
         whether a task span encloses it *)
      let stack = ref [] and out = ref acc in
      let close (s, _, children, outer_task) =
        let task_top = s.Span.task >= 0 && not outer_task in
        out := (s, dur_s s -. !children, task_top) :: !out
      in
      List.iter
        (fun (s : Span.t) ->
          let rec pop () =
            match !stack with
            | ((_, e, _, _) as top) :: rest when Int64.compare e s.Span.t0_ns <= 0 ->
                close top;
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          let outer_task =
            match !stack with
            | (p, _, children, outer) :: _ ->
                children := !children +. dur_s s;
                outer || p.Span.task >= 0
            | [] -> false
          in
          stack := (s, Int64.add s.Span.t0_ns s.Span.dur_ns, ref 0.0, outer_task) :: !stack)
        ss;
      List.iter close !stack;
      !out)
    by_dom []

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* total seconds and number of the spans [keep] selects *)
let span_total keep spans =
  List.fold_left (fun a s -> if keep s then a +. dur_s s else a) 0.0 spans

let span_count keep spans = List.length (List.filter keep spans)

let named p (s : Span.t) = has_prefix p s.Span.name

(* spans recorded while [f] runs, counters zeroed first; span collection
   is off again afterwards *)
let traced f =
  Span.reset ();
  Metrics.reset ();
  Span.enable ();
  let r = Fun.protect ~finally:Span.disable f in
  (r, Span.drain ())

(* (domain, seconds) the execution pool spent inside tasks, from the
   pool's own counters (kept only while span collection is on) *)
let pool_busy () =
  let prefix = "pool.busy_ns.domain" in
  List.filter_map
    (fun (k, v) ->
      if has_prefix prefix k && v > 0 then
        let d = String.sub k (String.length prefix) (String.length k - String.length prefix) in
        Some (int_of_string d, float v /. 1e9)
      else None)
    (Metrics.counters ())

let counter name = Option.value ~default:0 (List.assoc_opt name (Metrics.counters ()))
