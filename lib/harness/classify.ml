type config_report = {
  config : Config.t;
  total : int;
  wrong : int;
  build_failures : int;
  crashes : int;
  timeouts : int;
  fail_fraction : float;
  above : bool;
}

type t = {
  per_mode : int;
  discarded_sharing : int;
  reports : config_report list;
}

(* generate the initial kernel set: [per_mode] kernels per mode, skipping
   counter-sharing ones (the paper discarded those) *)
let initial_kernels pool ~per_mode ~seed0 =
  let discarded = ref 0 in
  let kernels =
    List.concat_map
      (fun mode ->
        let cfg = Gen_config.scaled mode in
        let classify ~seed =
          let tc, info =
            Span.with_ ~cat:"gen" "generate" (fun () ->
                Generate.generate ~cfg ~seed ())
          in
          if info.Generate.counter_sharing then Par.Reject `Sharing
          else Par.Accept (seed, tc)
        in
        let accepted, rejects = Par.collect pool ~n:per_mode ~seed0 ~classify in
        discarded := !discarded + List.length rejects;
        List.map (fun (seed, tc) -> (seed, mode, tc)) accepted)
      Gen_config.all_modes
  in
  (kernels, !discarded)

let journal_header ?fuel ?(per_mode = 10) ?(seed0 = 1) () =
  Journal.make_header ~campaign:"table1"
    ~ident:
      [
        ("seed0", string_of_int seed0);
        ("fuel", match fuel with Some f -> string_of_int f | None -> "-");
      ]
    ~scale:[ ("per_mode", string_of_int per_mode) ]

let run ?jobs ?fuel ?(per_mode = 10) ?(seed0 = 1) ?sink ?resume ?exec_filter ()
    : t =
  let jobs = match jobs with Some j -> j | None -> Pool.recommended_jobs () in
  Pool.with_pool ~jobs @@ fun pool ->
  let kernels, discarded_sharing = initial_kernels pool ~per_mode ~seed0 in
  let configs = Config.all in
  (* stats.(ci) = (wrong, bf, crash, timeout, total) *)
  let n = List.length configs in
  let wrong = Array.make n 0
  and bf = Array.make n 0
  and cr = Array.make n 0
  and tmo = Array.make n 0
  and tot = Array.make n 0 in
  (* one task per (kernel, configuration) cell, kernel-major; the prepared
     kernel is shared by all of its cells across domains. A cell's two
     optimisation levels are journalled together as opt "*" with a
     two-element outcome list. *)
  let tasks =
    List.concat_map
      (fun (seed, mode, tc) ->
        let prep = Driver.prepare tc in
        List.map (fun c -> (seed, mode, prep, c)) configs)
      kernels
  in
  let codec =
    {
      Par.key =
        (fun (seed, mode, _, c) ->
          (Gen_config.mode_name mode, seed, c.Config.id, "*"));
      encode = (fun _ (off, on) -> ([ off; on ], ""));
      decode =
        (fun _ -> function
          | { Journal.outcomes = [ off; on ]; _ } ->
              Some ((off, on), Interp.zero_stats)
          | _ -> None);
      placeholder = (fun _ -> (Par.outside_shard, Par.outside_shard));
      exec =
        (fun ~flow (_, _, prep, c) ->
          let run opt = Driver.run_prepared_stats ?fuel ~flow c ~opt prep in
          let off, st_off = run false in
          let on, st_on = run true in
          ((off, on), Interp.add_stats st_off st_on));
      on_error =
        (fun _ e ->
          let o = Par.crash_of_exn e in
          (o, o));
    }
  in
  let pairs = Par.grid pool ?sink ?resume ?exec_filter codec ~base:0 tasks in
  (* deterministic merge: per kernel, majority over all its results, then
     per-config bucket accumulation in task order *)
  List.iter
    (fun kernel_pairs ->
      let all_results =
        List.concat_map (fun (a, b) -> [ a; b ]) kernel_pairs
      in
      let majority =
        Span.with_ ~cat:"vote" "vote" (fun () ->
            Majority.majority_output all_results)
      in
      List.iteri
        (fun i (off, on) ->
          List.iter
            (fun o ->
              tot.(i) <- tot.(i) + 1;
              Par.record_bucket (Majority.bucket_of ~majority o);
              match Majority.bucket_of ~majority o with
              | Majority.B_wrong -> wrong.(i) <- wrong.(i) + 1
              | Majority.B_bf -> bf.(i) <- bf.(i) + 1
              | Majority.B_crash -> cr.(i) <- cr.(i) + 1
              | Majority.B_timeout -> tmo.(i) <- tmo.(i) + 1
              | Majority.B_ok -> ())
            [ off; on ])
        kernel_pairs)
    (Par.chunk (List.length configs) pairs);
  let reports =
    List.mapi
      (fun i c ->
        let fails = wrong.(i) + bf.(i) + cr.(i) + tmo.(i) in
        let frac = if tot.(i) = 0 then 0.0 else float fails /. float tot.(i) in
        {
          config = c;
          total = tot.(i);
          wrong = wrong.(i);
          build_failures = bf.(i);
          crashes = cr.(i);
          timeouts = tmo.(i);
          fail_fraction = frac;
          above = frac <= 0.25 && not c.Config.manual_below;
        })
      configs
  in
  { per_mode; discarded_sharing; reports }

let to_table (t : t) =
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.config.Config.id;
          r.config.Config.sdk;
          r.config.Config.device;
          r.config.Config.driver;
          Config.device_type_name r.config.Config.device_type;
          string_of_int r.wrong;
          string_of_int r.build_failures;
          string_of_int r.crashes;
          string_of_int r.timeouts;
          Printf.sprintf "%.1f%%" (100. *. r.fail_fraction);
          (if r.above then "YES" else "no");
          (if r.config.Config.above_threshold then "YES" else "no");
        ])
      t.reports
  in
  Table_fmt.render_titled
    ~title:
      (Printf.sprintf
         "Table 1: configurations and reliability threshold (%d initial \
          kernels/mode, %d discarded for counter sharing)"
         t.per_mode t.discarded_sharing)
    ~header:
      [ "Conf."; "SDK"; "Device"; "Driver"; "Type"; "w"; "bf"; "c"; "to";
        "fail%"; "above?"; "paper" ]
    rows

let agreement_with_paper (t : t) =
  let agree =
    List.length
      (List.filter
         (fun r -> r.above = r.config.Config.above_threshold)
         t.reports)
  in
  (agree, List.length t.reports)
