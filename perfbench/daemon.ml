(* Benchmark daemon program: the passive time server on an absolute tick
   schedule.

   It runs the same public calls as bin/tre_serverd
   (Net_server.create/start/tick/stats/stop), but epoch [first + k] is
   due at t0 + k * period, and each tick's lateness against that due
   time is recorded. tre_serverd sleeps a fixed time after each tick, so
   its due times drift by the tick cost and cannot be stated. The program
   receives only key material and a schedule; it knows nothing of the
   workload.

   Commands, one per stdin line:
     start   tick epochs first+1, first+2, ... on schedule (period > 0)
     mark    report a Net_server.stats snapshot stamped with its time
     halt    stop ticking; report every tick's due, start and end
     quit    report final stats; stop the server

   Usage: daemon.exe --sock PATH --key SEED [--first-epoch N]
            [--period SECONDS] *)

open Common

let sock = ref ""
let key = ref ""
let params_name = "mid128" (* Net_server's default parameter set *)
let first = ref 1
let period = ref 0.0

let spec =
  [
    ("--sock", Arg.Set_string sock, "PATH Unix-domain socket to listen on");
    ("--key", Arg.Set_string key, "SEED server key material");
    ("--first-epoch", Arg.Set_int first, "N epoch broadcast at start-up (the present)");
    ("--period", Arg.Set_float period, "SECONDS tick period; 0 = never tick after start-up");
  ]

let stats_json (st : Netmsg.stats) =
  Printf.sprintf
    "{\"conns_accepted\":%d,\"conns_open\":%d,\"subscribers\":%d,\
     \"updates_encoded\":%d,\"frames_sent\":%d,\"bytes_sent\":%d,\
     \"archive_hits\":%d,\"archive_misses\":%d,\"protocol_errors\":%d,\
     \"slow_disconnects\":%d,\"queue_bytes\":%d,\"queue_bytes_peak\":%d,\
     \"send_syscalls\":%d,\"poll_wakeups\":%d,\"shard_conns\":%s}"
    st.Netmsg.conns_accepted st.conns_open st.subscribers st.updates_encoded
    st.frames_sent st.bytes_sent st.archive_hits st.archive_misses
    st.protocol_errors st.slow_disconnects st.queue_bytes st.queue_bytes_peak
    st.send_syscalls st.poll_wakeups
    (jlist (List.map string_of_int st.shard_conns))

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("stray argument " ^ a))) "daemon.exe [options]";
  if !sock = "" || !key = "" then failwith "daemon.exe: --sock and --key are required";
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let prms = params params_name in
  let granularity = if !period > 0.0 then !period else 1.0 in
  let timeline = Timeline.create ~granularity () in
  let cfg =
    { (Net_server.default_config prms timeline) with Net_server.unix_path = Some !sock }
  in
  let rng = Hashing.Drbg.create ~seed:!key ~personalization:"perfbench-daemon" () in
  let srv = Net_server.create cfg rng in
  Net_server.start srv;
  Net_server.tick srv !first;
  emit
    (Printf.sprintf
       "{\"event\":\"ready\",\"pid\":%d,\"params\":%s,\"backend\":%s,\
        \"vectored\":%b,\"shards\":%d,\"ocaml\":%s,\"first_epoch\":%d,\
        \"period\":%g,\"archive_cache_limit\":%d}"
       (Unix.getpid ()) (jstr params_name)
       (jstr (Net_server.backend_name srv))
       (Net_server.vectored srv) cfg.Net_server.shards (jstr Sys.ocaml_version)
       !first !period cfg.Net_server.archive_cache_limit);
  (* (epoch, due, tick start, tick end), newest first; only the ticker
     thread writes it, and it is read after the ticker is joined. *)
  let ticks = ref [] in
  let halted = Atomic.make false in
  let run_ticker () =
    let t0 = now () +. !period in
    let k = ref 1 in
    while not (Atomic.get halted) do
      let due = t0 +. (float_of_int !k *. !period) in
      let wait = due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      if not (Atomic.get halted) then begin
        let epoch = !first + !k in
        let ts = now () in
        Net_server.tick srv epoch;
        let te = now () in
        ticks := (epoch, due, ts, te) :: !ticks;
        incr k
      end
    done
  in
  let ticker = ref None in
  let halt () =
    Atomic.set halted true;
    Option.iter Thread.join !ticker;
    ticker := None
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | "start" ->
        if !period > 0.0 && !ticker = None then
          ticker := Some (Thread.create run_ticker ());
        loop ()
    | "mark" ->
        emit
          (Printf.sprintf "{\"event\":\"mark\",\"t\":%s,\"stats\":%s}" (jtime (now ()))
             (stats_json (Net_server.stats srv)));
        loop ()
    | "halt" ->
        halt ();
        emit
          (Printf.sprintf "{\"event\":\"ticks\",\"ticks\":%s}"
             (jlist
                (List.rev_map
                   (fun (e, due, ts, te) ->
                     Printf.sprintf "[%d,%s,%s,%s]" e (jtime due) (jtime ts) (jtime te))
                   !ticks)));
        loop ()
    | "quit" -> ()
    | other -> failwith ("daemon.exe: unknown command " ^ other)
  in
  loop ();
  halt ();
  let st = Net_server.stats srv in
  Net_server.stop srv;
  emit (Printf.sprintf "{\"event\":\"final\",\"stats\":%s}" (stats_json st))
