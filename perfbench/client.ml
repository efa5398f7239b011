(* Benchmark client process: the receivers of one workload, in a process
   of their own, apart from the daemon.

   Two clients, each on its own domain and its own connection, so that
   neither queues behind the other; each decodes and verifies its own
   copy of every update (no shared decode cache). Roles:

   - subscriber: on every broadcast epoch, decode, verify, and open the
     message it sealed for that epoch [lead] epochs earlier; then seal
     one new message to epoch + lead (an uncached label);
   - walker: a returning receiver. Both walkers fetch the same run of
     past epochs, in order and at the same fixed rate, from the archive,
     one query outstanding, and batch-verify every [batch] fetched
     updates. They were offline for the same window, so whichever asks
     first for an epoch makes the daemon re-sign it and the other is
     served from the frame cache.

   Workloads: live = two subscribers, catchup = two walkers.

   Commands, one per stdin line, after the "ready" report:
     start    begin the workload
     trace    record spans from now on     untrace   stop recording
     stop     finish (drain, future-label query, negative controls) and
              report every record
     probe    (after stop) time the kernel calls on inputs just handled
     quit     leave

   Usage: client.exe --sock PATH --workload live|catchup --seed S *)

open Common

let sock = ref ""
let workload = ref ""
let seed = ref ""
let params_name = "mid128" (* the daemon's default parameter set *)
let lead = 4
let batch = 16

(* Lookups per second per walker. Back to back (a closed loop) the two
   walkers, in step, let the slower CPU set the pace of both: every
   swing of the host's speed reached the results, with 26-34% spreads
   over ten runs. At 100/s their 13 ms batch verifications outlasted the
   10 ms interval and left them out of step after every batch. *)
let archive_rate = 50.0

(* How far back the walkers' run starts: deeper than any run can walk,
   so the run never reaches the present and never repeats an epoch. *)
let catchup_depth = 900_000

let spec =
  [
    ("--sock", Arg.Set_string sock, "PATH daemon socket");
    ("--workload", Arg.Set_string workload, "NAME live|catchup");
    ("--seed", Arg.Set_string seed, "SEED client key and message material");
  ]

type role = Subscriber | Walker

let role_name = function
  | Subscriber -> "subscriber"
  | Walker -> "walker"

let roles_of = function
  | "live" -> [| Subscriber; Subscriber |]
  | "catchup" -> [| Walker; Walker |]
  | w -> failwith ("client.exe: unknown workload " ^ w)

(* Each client stands for a receiver device of its own, so each client
   domain is pinned to its own CPU: left to itself, the kernel sometimes
   woke both clients onto one core for a whole run, which made the
   delivery latency bimodal from run to run. run.py pins the daemon
   (daemon_cpus there). *)
external pin_cpu : int -> int = "perfbench_pin_cpu"

let go = Atomic.make false

(* When the workload starts: the archive clients' schedules share it, so
   the two catchup walkers ask for each epoch at the same instant and
   the one served second always waits on the first one's re-sign. With
   schedules of their own they drifted apart by more than a re-sign for
   part of each run, and the share of waitless hits moved the RTT
   median between runs. *)
let start_time = Atomic.make 0.0
let stop = Atomic.make false
let tracing = Atomic.make false

type lookup = {
  l_epoch : int;
  t_q : float;  (** query about to be written *)
  t_dec : float;  (** reply decoded *)
  mutable status : string;
      (** ok | pending (awaiting its batch) | batch_false | miss |
          bad_update | wrong_label | unexpected | timeout *)
  l_digest : string;
}

let seen_cap = 32

type client = {
  idx : int;
  role : role;
  prms : Pairing.params;
  tl : Timeline.t;
  present : int;  (** the daemon's current epoch at hello *)
  server : Tre.Server.public;
  verifier : Tre.Verifier.t;
  usk : Tre.User.secret;
  enc : Tre.Encryptor.t;
  rng : Hashing.Drbg.t;
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  buf : Bytes.t;
  mutable last_tick : string * float;
      (** label and server send stamp of the last [Net_tick] preamble *)
  spans : Span.recorder;
  sealed : (int, Tre.ciphertext * string) Hashtbl.t;
  mutable delivered : (int * float * bool * string) list;
  mutable lookups : lookup list;
  mutable batches : (float * float * int * bool) list;
  seen : (string * Tre.update) option array;  (** ring of recent updates *)
  mutable nseen : int;
  mutable ops : int;
  mutable words : float;  (** words allocated by this domain while running *)
  mutable errors : string list;
  mutable future_refused : bool;
}

let digest payload = Digest.to_hex (Digest.string payload)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let remember c payload u =
  c.seen.(c.nseen mod seen_cap) <- Some (payload, u);
  c.nseen <- c.nseen + 1

let recent c = List.filter_map Fun.id (Array.to_list c.seen)

(* Next frame payload from [fd], reading into [buf] and [dec] as needed
   until [deadline]; [None] on timeout. [on_read] gets the time each
   read returns. *)
let rec next_frame ?(on_read = ignore) fd dec buf ~deadline =
  match Frame.Decoder.pop dec with
  | Some p -> Some p
  | None -> (
      let left = deadline -. now () in
      if left <= 0.0 then None
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> next_frame ~on_read fd dec buf ~deadline
        | _ ->
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            on_read (now ());
            if n = 0 then failwith "daemon closed the connection";
            (match Frame.Decoder.feed dec buf 0 n with
            | Ok () -> ()
            | Error e -> failwith ("framing: " ^ e));
            next_frame ~on_read fd dec buf ~deadline
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            next_frame ~on_read fd dec buf ~deadline)

(* --- set-up: hello, verifier, key pair, encryptor, connection --- *)

let fetch_hello prms fd dec buf =
  send_all fd (Frame.encode (Netmsg.subscribe_to_bytes prms));
  match next_frame fd dec buf ~deadline:(now () +. 10.0) with
  | None -> failwith "no hello"
  | Some p -> (
      match Netmsg.hello_of_bytes prms p with
      | Ok h -> h
      | Error e -> failwith ("bad hello: " ^ e))

(* Connections are opened in client order, and the archive clients' hello
   is taken before any of them (see [main]), so the daemon's
   least-loaded shard assignment always puts the two clients on
   different shards; racing connects sometimes put both on one. *)
let turn = Atomic.make 0

let connect_in_turn idx =
  while Atomic.get turn <> idx do
    Domain.cpu_relax ()
  done;
  Fun.protect ~finally:(fun () -> Atomic.incr turn) (fun () -> connect !sock)

let setup prms idx role archive_hello =
  let buf = Bytes.create 65536 in
  let dec = Frame.Decoder.create () in
  let fd = connect_in_turn idx in
  (* A subscriber holds the hello on its subscription; an archive client
     holds the one taken on a short-lived subscription, so that its own
     connection never receives broadcasts. *)
  let hello =
    match role with
    | Subscriber -> fetch_hello prms fd dec buf
    | Walker -> Option.get archive_hello
  in
  let tl =
    Timeline.create ~origin:hello.Netmsg.origin
      ~granularity:(float_of_int hello.Netmsg.granularity_us /. 1e6)
      ()
  in
  let server = { Tre.Server.g = hello.Netmsg.server_g; sg = hello.Netmsg.server_sg } in
  let rng =
    Hashing.Drbg.create ~seed:(Printf.sprintf "%s/client%d" !seed idx)
      ~personalization:"perfbench-client" ()
  in
  let usk, upk = Tre.User.keygen prms server rng in
  {
      idx;
      role;
      prms;
      tl;
      present = hello.Netmsg.current_epoch;
      server;
      verifier = Tre.Verifier.create prms server;
      usk;
      enc = Tre.Encryptor.create prms server upk;
      rng;
      fd;
      dec;
      buf;
      last_tick = ("", 0.0);
      spans = Span.recorder (Printf.sprintf "c%d" idx);
      sealed = Hashtbl.create 16;
      delivered = [];
      lookups = [];
      batches = [];
      seen = Array.make seen_cap None;
      nseen = 0;
      ops = 0;
      words = 0.0;
    errors = [];
    future_refused = false;
  }

let seal c epoch =
  let msg = Hashing.Drbg.generate c.rng 32 in
  let ct = Tre.Encryptor.encrypt c.enc ~release_time:(Timeline.label c.tl epoch) c.rng msg in
  Hashtbl.replace c.sealed epoch (ct, msg)

(* --- subscriber --- *)

let deliver c payload ~t_r ~t_f =
  let tr = Atomic.get tracing in
  let t_a = now () in
  let decoded = Tre.update_of_bytes c.prms payload in
  let t_b = if tr then now () else 0.0 in
  match decoded with
  | Error e ->
      c.delivered <- (-1, now (), false, digest payload) :: c.delivered;
      c.errors <- ("undecodable broadcast update: " ^ e) :: c.errors
  | Ok u ->
      let epoch =
        Option.value ~default:(-1) (Timeline.epoch_of_label c.tl u.Tre.update_time)
      in
      let verified = Tre.Verifier.verify_update c.prms c.verifier u in
      let t_c = if tr then now () else 0.0 in
      let opened =
        match Hashtbl.find_opt c.sealed epoch with
        | None -> false
        | Some (ct, msg) -> (
            Hashtbl.remove c.sealed epoch;
            try Tre.decrypt c.prms c.usk u ct = msg with Tre.Update_mismatch -> false)
      in
      let t_end = now () in
      c.delivered <- (epoch, t_end, verified && opened, digest payload) :: c.delivered;
      c.ops <- c.ops + 1;
      remember c payload u;
      let t_s = if tr then now () else 0.0 in
      if epoch >= 0 then seal c (epoch + lead);
      if tr then begin
        let t_e = now () in
        let req = Printf.sprintf "c%d/e%d" c.idx epoch in
        let root = Span.fresh c.spans in
        Span.add c.spans ~id:root ~name:"client.epoch" ~req ~parent:(-1) t_r t_e;
        let child name t0 t1 = Span.add c.spans ~name ~req ~parent:root t0 t1 in
        (* Wire wait starts at the daemon's send stamp, taken after the
           update is signed and encoded and before the fan-out. *)
        (match c.last_tick with
        | label, sent when label = u.Tre.update_time -> child "wire.wait" sent t_r
        | _ -> ());
        child "frame.decode" t_r t_f;
        child "tre.update_of_bytes" t_a t_b;
        child "tre.verify_update" t_b t_c;
        child "tre.decrypt" t_c t_end;
        child "tre.encrypt" t_s t_e
      end

let on_broadcast c payload ~t_r ~t_f =
  match Codec.peek_kind payload with
  | Ok Codec.Net_tick -> (
      match Netmsg.tick_of_bytes c.prms payload with
      | Ok t ->
          c.last_tick <- (t.Netmsg.tick_label, float_of_int t.Netmsg.sent_at_us /. 1e6)
      | Error e -> c.errors <- ("bad tick preamble: " ^ e) :: c.errors)
  | Ok Codec.Key_update -> deliver c payload ~t_r ~t_f
  | Ok k -> c.errors <- ("unexpected broadcast kind " ^ Codec.kind_label k) :: c.errors
  | Error e -> c.errors <- ("undecodable broadcast: " ^ e) :: c.errors

let rec pop_all dec acc =
  match Frame.Decoder.pop dec with Some p -> pop_all dec (p :: acc) | None -> List.rev acc

(* Runs until [stop], then drains whatever is still in flight. *)
let subscriber_loop c =
  let finished = ref false in
  while not !finished do
    let stopping = Atomic.get stop in
    match Unix.select [ c.fd ] [] [] (if stopping then 0.2 else 0.05) with
    | [], _, _ -> if stopping then finished := true
    | _ ->
        let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
        let t_r = now () in
        if n = 0 then failwith "daemon closed the subscription";
        (match Frame.Decoder.feed c.dec c.buf 0 n with
        | Ok () -> ()
        | Error e -> failwith ("framing: " ^ e));
        let frames = pop_all c.dec [] in
        let t_f = now () in
        List.iter (fun p -> on_broadcast c p ~t_r ~t_f) frames
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* --- walker: archive lookups at a fixed rate --- *)

(* Lookup k (from 1), for epoch present - catchup_depth + k, is sent no
   earlier than (k - 1) / archive_rate seconds after [start_time]. *)
let archive_loop c =
  let pending = ref [] in
  let npending = ref 0 in
  let verify_batch () =
    if !npending > 0 then begin
      let items = List.rev !pending in
      let t0 = now () in
      let ok = Tre.Verifier.verify_updates c.prms c.verifier (List.map snd items) in
      let t1 = now () in
      List.iter
        (fun (l, _) ->
          if l.status = "pending" then l.status <- (if ok then "ok" else "batch_false"))
        items;
      c.batches <- (t0, t1, !npending, ok) :: c.batches;
      if Atomic.get tracing then begin
        let req = Printf.sprintf "c%d/b%d" c.idx (List.length c.batches) in
        let root = Span.fresh c.spans in
        Span.add c.spans ~id:root ~name:"client.batch" ~req ~parent:(-1) t0 t1;
        Span.add c.spans ~name:"tre.verify_updates" ~req ~parent:root t0 t1
      end;
      pending := [];
      npending := 0
    end
  in
  let timed_out = ref false in
  let last_read = ref 0.0 in
  let on_read t = last_read := t in
  let t_start = Atomic.get start_time in
  let k = ref 0 in
  while (not !timed_out) && not (Atomic.get stop) do
    let wait = t_start +. (float_of_int !k /. archive_rate) -. now () in
    if wait > 0.0 then Unix.sleepf wait;
    incr k;
    let e = c.present - catchup_depth + !k in
    let label = Timeline.label c.tl e in
    let query = Frame.encode (Netmsg.archive_query_to_bytes c.prms label) in
    let tr = Atomic.get tracing in
    let t_q = now () in
    send_all c.fd query;
    let t_w = now () in
    match next_frame ~on_read c.fd c.dec c.buf ~deadline:(t_q +. 5.0) with
    | None ->
        (* The connection's state is unknown after a lost reply: end the walk. *)
        c.lookups <-
          { l_epoch = e; t_q; t_dec = now (); status = "timeout"; l_digest = "" } :: c.lookups;
        c.ops <- c.ops + 1;
        timed_out := true
    | Some payload ->
        let t_f = now () in
        let status, upd =
          match Codec.peek_kind payload with
          | Ok Codec.Key_update -> (
              match Tre.update_of_bytes c.prms payload with
              | Ok u when u.Tre.update_time = label -> ("pending", Some u)
              | Ok _ -> ("wrong_label", None)
              | Error _ -> ("bad_update", None))
          | Ok Codec.Net_archive_miss -> ("miss", None)
          | _ -> ("unexpected", None)
        in
        let t_dec = now () in
        c.lookups <-
          { l_epoch = e; t_q; t_dec; status; l_digest = digest payload } :: c.lookups;
        c.ops <- c.ops + 1;
        if tr then begin
          let req = Printf.sprintf "c%d/q%d" c.idx c.ops in
          let root = Span.fresh c.spans in
          Span.add c.spans ~id:root ~name:"client.lookup" ~req ~parent:(-1) t_q t_dec;
          let child name t0 t1 = Span.add c.spans ~name ~req ~parent:root t0 t1 in
          child "net.write" t_q t_w;
          child "archive.server" t_w !last_read;
          child "frame.decode" !last_read t_f;
          child "tre.update_of_bytes" t_f t_dec
        end;
        Option.iter
          (fun u ->
            remember c payload u;
            pending := (List.hd c.lookups, u) :: !pending;
            incr npending;
            if !npending >= batch then verify_batch ())
          upd
  done;
  verify_batch ()

(* --- end-of-run checks --- *)

(* §3: the daemon must refuse a label whose epoch has not started. *)
let check_future c =
  let label = Timeline.label c.tl (c.present + 1_000_000_000) in
  send_all c.fd (Frame.encode (Netmsg.archive_query_to_bytes c.prms label));
  let deadline = now () +. 5.0 in
  let rec await () =
    match next_frame c.fd c.dec c.buf ~deadline with
    | None -> false
    | Some p -> (
        match Codec.peek_kind p with
        | Ok Codec.Net_archive_miss -> (
            match Netmsg.archive_miss_of_bytes c.prms p with
            | Ok (l, Netmsg.Future_refused) -> l = label
            | _ -> false)
        | Ok (Codec.Net_tick | Codec.Key_update) -> await () (* broadcast after the run *)
        | _ -> false)
  in
  c.future_refused <- await ()

(* Negative controls: each must be rejected, so a build that skipped a
   check cannot pass for a faster one. *)
let controls c =
  match recent c with
  | (p1, u1) :: _ :: _ as all ->
      let _, u2 =
        List.find (fun (_, u) -> u.Tre.update_time <> u1.Tre.update_time) (List.tl all)
      in
      let b = Bytes.of_string p1 in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      let flipped_sigma =
        match Tre.update_of_bytes c.prms (Bytes.to_string b) with
        | Error _ -> true
        | Ok u -> not (Tre.Verifier.verify_update c.prms c.verifier u)
      in
      let msg = Hashing.Drbg.generate c.rng 32 in
      let ct = Tre.Encryptor.encrypt c.enc ~release_time:u1.Tre.update_time c.rng msg in
      let right_update_opens = Tre.decrypt c.prms c.usk u1 ct = msg in
      let wrong_epoch_label =
        match Tre.decrypt c.prms c.usk u2 ct with
        | pt -> pt <> msg
        | exception Tre.Update_mismatch -> true
      in
      let wrong_epoch_value =
        match
          Tre.decrypt c.prms c.usk { u2 with Tre.update_time = u1.Tre.update_time } ct
        with
        | pt -> pt <> msg
        | exception Tre.Update_mismatch -> false
      in
      Printf.sprintf
        "{\"right_update_opens\":%b,\"rejected\":{\"flipped_sigma\":%b,\
         \"wrong_epoch_label\":%b,\"wrong_epoch_value\":%b}}"
        right_update_opens flipped_sigma wrong_epoch_label wrong_epoch_value
  | _ -> "null"

(* --- traced run only: the kernels, on the inputs this run handled --- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  if Array.length a = 0 then 0.0 else a.(Array.length a / 2)

let time_us f =
  let t0 = now () in
  let v = f () in
  ((now () -. t0) *. 1e6, v)

let probe clients =
  let prms = clients.(0).prms in
  let curve = prms.Pairing.curve in
  let server = clients.(0).server in
  let ups = List.concat_map (fun c -> List.map snd (recent c)) (Array.to_list clients) in
  let rng = Hashing.Drbg.create ~seed:(!seed ^ "/probe") () in
  let ok = ref true in
  let each f = median (List.map (fun u -> fst (time_us (fun () -> f u))) ups) in
  let hash_us = each (fun u -> Pairing.hash_to_g1 prms u.Tre.update_time) in
  let mul_us =
    each (fun u -> Curve.mul curve (Pairing.random_scalar prms rng) u.Tre.update_value)
  in
  let neg_g = Curve.neg curve server.Tre.Server.g in
  let check_us =
    each (fun u ->
        let h = Pairing.hash_to_g1 prms u.Tre.update_time in
        let t, v =
          time_us (fun () ->
              Pairing.check_product_one prms [ (server.Tre.Server.sg, h); (neg_g, u.Tre.update_value) ])
        in
        if not v then ok := false;
        t)
    -. hash_us
  in
  let fe_us =
    median
      (List.map
         (fun u ->
           let m = Pairing.miller_loop prms u.Tre.update_value (Pairing.hash_to_g1 prms u.Tre.update_time) in
           fst (time_us (fun () -> Pairing.final_exponentiation prms m)))
         ups)
  in
  let terms = List.length ups in
  let ds = Pairing.batch_exponents prms ~seed:"perfbench-probe" terms in
  let pairs = List.map2 (fun d u -> (d, u.Tre.update_value)) ds ups in
  let msm_us = median (List.init 5 (fun _ -> fst (time_us (fun () -> Curve.msm curve pairs)))) in
  let fp = prms.Pairing.fp in
  let xs =
    Array.of_list
      (List.filter_map
         (fun u -> match u.Tre.update_value with Curve.Affine { x; _ } -> Some x | Curve.Infinity -> None)
         ups)
  in
  let n = Array.length xs in
  let reps = 20_000 in
  let fp_ns =
    median
      (List.init 5 (fun _ ->
           let t0 = now () in
           let acc = ref xs.(0) in
           for i = 1 to reps do
             acc := Fp.mul fp !acc xs.(i mod n)
           done;
           ignore (Sys.opaque_identity !acc);
           (now () -. t0) *. 1e9 /. float_of_int reps))
  in
  Printf.sprintf
    "{\"event\":\"probe\",\"inputs\":%d,\"equations_hold\":%b,\"pairing.hash_to_g1_us\":%.3f,\
     \"curve.mul_us\":%.3f,\"pairing.check_product_one_us\":%.3f,\
     \"pairing.final_exponentiation_us\":%.3f,\"curve.msm_us_per_term\":%.3f,\
     \"fp.mul_ns\":%.3f}"
    terms !ok hash_us mul_us check_us fe_us
    (msm_us /. float_of_int (max 1 terms))
    fp_ns

(* --- reports --- *)

let report c =
  emit
    (Printf.sprintf
       "{\"event\":\"client\",\"idx\":%d,\"role\":%s,\"ops\":%d,\"alloc_words\":%.0f,\
        \"future_refused\":%b,\"errors\":%s}"
       c.idx (jstr (role_name c.role)) c.ops c.words c.future_refused
       (jlist (List.rev_map jstr c.errors)));
  emit
    (Printf.sprintf "{\"event\":\"deliver\",\"idx\":%d,\"records\":%s}" c.idx
       (jlist
          (List.rev_map
             (fun (e, t, ok, d) -> Printf.sprintf "[%d,%s,%b,%s]" e (jtime t) ok (jstr d))
             c.delivered)));
  emit
    (Printf.sprintf "{\"event\":\"lookups\",\"idx\":%d,\"records\":%s}" c.idx
       (jlist
          (List.rev_map
             (fun l ->
               Printf.sprintf "[%d,%s,%s,%s,%s]" l.l_epoch (jtime l.t_q) (jtime l.t_dec)
                 (jstr l.status) (jstr l.l_digest))
             c.lookups)));
  emit
    (Printf.sprintf "{\"event\":\"batches\",\"idx\":%d,\"records\":%s}" c.idx
       (jlist
          (List.rev_map
             (fun (t0, t1, n, ok) -> Printf.sprintf "[%s,%s,%d,%b]" (jtime t0) (jtime t1) n ok)
             c.batches)));
  emit (Printf.sprintf "{\"event\":\"spans\",\"idx\":%d,\"spans\":%s}" c.idx (Span.to_json c.spans))

let run_client c =
  while not (Atomic.get go) do
    Unix.sleepf 0.001
  done;
  if not (Atomic.get stop) then begin
    let w0 = alloc_words () in
    (try
       match c.role with
       | Subscriber -> subscriber_loop c
       | Walker -> archive_loop c
     with e -> c.errors <- ("client loop: " ^ Printexc.to_string e) :: c.errors);
    c.words <- alloc_words () -. w0;
    try check_future c
    with e -> c.errors <- ("future-label query: " ^ Printexc.to_string e) :: c.errors
  end

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("stray argument " ^ a))) "client.exe [options]";
  if !sock = "" || !seed = "" then failwith "client.exe: --sock and --seed are required";
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let roles = roles_of !workload in
  let prms = params params_name in
  let archive_hello =
    if Array.for_all (( = ) Subscriber) roles then None
    else begin
      let fd = connect !sock in
      let buf = Bytes.create 65536 in
      let h = fetch_hello prms fd (Frame.Decoder.create ()) buf in
      (* Hang up and wait for the daemon's own close, which it makes after
         taking the connection off its shard's count: the clients then
         connect to empty shards. *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      while Unix.read fd buf 0 (Bytes.length buf) > 0 do
        ()
      done;
      Unix.close fd;
      Some h
    end
  in
  let ready = Atomic.make 0 in
  let setup_error = Atomic.make None in
  let cpus = Array.make (Array.length roles) (-1) in
  let domains =
    Array.mapi
      (fun idx role ->
        Domain.spawn (fun () ->
            let cpu = pin_cpu idx in
            match setup prms idx role archive_hello with
            | exception e ->
                Atomic.set setup_error (Some (Printexc.to_string e));
                Atomic.incr ready;
                None
            | c ->
                cpus.(idx) <- cpu;
                (* The first [lead] messages are sealed during set-up. *)
                if role = Subscriber then
                  for k = 1 to lead do
                    seal c (c.present + k)
                  done;
                Atomic.incr ready;
                run_client c;
                Some c))
      roles
  in
  while Atomic.get ready < Array.length roles do
    Unix.sleepf 0.001
  done;
  (match Atomic.get setup_error with
  | Some e ->
      prerr_endline ("client.exe: set-up failed: " ^ e);
      exit 1
  | None -> ());
  emit
    (Printf.sprintf "{\"event\":\"ready\",\"pid\":%d,\"roles\":%s,\"cpus\":%s}"
       (Unix.getpid ())
       (jlist (Array.to_list (Array.map (fun r -> jstr (role_name r)) roles)))
       (jlist (Array.to_list (Array.map string_of_int cpus))));
  let finish () =
    Atomic.set stop true;
    Atomic.set go true;
    Array.map (fun d -> Option.get (Domain.join d)) domains
  in
  let rec loop finished =
    match input_line stdin with
    | exception End_of_file -> if finished = None then ignore (finish ())
    | "start" ->
        Atomic.set start_time (now ());
        Atomic.set go true;
        loop finished
    | "trace" ->
        Atomic.set tracing true;
        loop finished
    | "untrace" ->
        Atomic.set tracing false;
        loop finished
    | "stop" ->
        let clients = finish () in
        Array.iter report clients;
        emit (Printf.sprintf "{\"event\":\"controls\",\"controls\":%s}" (controls clients.(0)));
        emit "{\"event\":\"done\"}";
        loop (Some clients)
    | "probe" -> (
        match finished with
        | Some clients ->
            emit (probe clients);
            loop finished
        | None -> failwith "client.exe: probe before stop")
    | "quit" -> if finished = None then ignore (finish ())
    | other -> failwith ("client.exe: unknown command " ^ other)
  in
  loop None
