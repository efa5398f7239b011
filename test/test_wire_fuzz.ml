(* Deterministic decode-fuzzing harness for the strict wire codec.

   For every parameter set and every wire kind it builds one valid sample
   object and then, from a seeded HMAC-DRBG, derives thousands of mutated
   inputs (bit flips, truncations, extensions, random splices, pure
   garbage). The invariants:

   - decoders NEVER raise, on any input;
   - canonicality: any input a decoder accepts re-encodes bit-identically
     (so there is exactly one wire form per value — no mutation can
     produce a second accepted encoding of the same object, and no
     accepted encoding contains ignored bytes);
   - cross-kind confusion: a valid object of kind A is rejected by every
     kind-B decoder;
   - cross-params confusion: a valid object under parameter set P is
     rejected by every decoder running under parameter set P'.

   Iteration counts are bounded so `dune runtest` stays quick; set
   TRE_WIRE_FUZZ_ITERS (e.g. 10000) for the deeper CI pass. *)

let iters_per_kind =
  match Sys.getenv_opt "TRE_WIRE_FUZZ_ITERS" with
  | Some s -> (try max 100 (int_of_string s) with Failure _ -> 600)
  | None -> 600

(* One fuzz target: a named decoder that, on success, re-encodes the
   decoded value so the harness can check canonicality without knowing
   the value's type. *)
type target = {
  kind : Codec.kind;
  sample : string; (* a valid encoding under [prms] *)
  decode_reencode : Pairing.params -> string -> (string, string) result;
}

let targets prms =
  let rng = Hashing.Drbg.create ~seed:("wire-fuzz|" ^ prms.Pairing.name) () in
  let srv_sec, srv_pub = Tre.Server.keygen prms rng in
  let alice_sec, alice_pub = Tre.User.keygen prms srv_pub rng in
  let t = "fuzz-epoch" in
  let upd = Tre.issue_update prms srv_sec t in
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t rng "wire fuzz payload" in
  let ct_fo = Tre_fo.encrypt prms srv_pub alice_pub ~release_time:t rng "fo payload" in
  let ct_react =
    Tre_react.encrypt prms srv_pub alice_pub ~release_time:t rng "react payload"
  in
  let id_sec, id_pub = Id_tre.Server.keygen prms rng in
  let ct_id = Id_tre.encrypt prms id_pub "bob@fuzz" ~release_time:t rng "id payload" in
  ignore id_sec;
  let multi_pubs = [ srv_pub; snd (Tre.Server.keygen prms rng) ] in
  let _, multi_pk = Multi_server.receiver_keygen prms multi_pubs rng in
  let ct_multi =
    Multi_server.encrypt prms multi_pubs multi_pk ~release_time:t rng "multi payload"
  in
  let ek = Key_insulation.derive prms alice_sec upd in
  let bls_sec, bls_pub = Bls.keygen prms rng in
  let bls_sig = Bls.sign prms bls_sec "fuzz message" in
  let tsys, tservers = Threshold_server.setup prms rng ~k:2 ~n:3 in
  ignore tsys;
  let partial = Threshold_server.issue_partial prms (List.hd tservers) t in
  let re decode encode p s = Result.map (encode p) (decode p s) in
  [
    {
      kind = Codec.Ciphertext;
      sample = Tre.ciphertext_to_bytes prms ct;
      decode_reencode = re Tre.ciphertext_of_bytes Tre.ciphertext_to_bytes;
    };
    {
      kind = Codec.Ciphertext_fo;
      sample = Tre_fo.ciphertext_to_bytes prms ct_fo;
      decode_reencode = re Tre_fo.ciphertext_of_bytes Tre_fo.ciphertext_to_bytes;
    };
    {
      kind = Codec.Ciphertext_react;
      sample = Tre_react.ciphertext_to_bytes prms ct_react;
      decode_reencode = re Tre_react.ciphertext_of_bytes Tre_react.ciphertext_to_bytes;
    };
    {
      kind = Codec.Ciphertext_id;
      sample = Id_tre.ciphertext_to_bytes prms ct_id;
      decode_reencode = re Id_tre.ciphertext_of_bytes Id_tre.ciphertext_to_bytes;
    };
    {
      kind = Codec.Ciphertext_multi;
      sample = Multi_server.ciphertext_to_bytes prms ct_multi;
      decode_reencode =
        re Multi_server.ciphertext_of_bytes Multi_server.ciphertext_to_bytes;
    };
    {
      kind = Codec.Key_update;
      sample = Tre.update_to_bytes prms upd;
      decode_reencode = re Tre.update_of_bytes Tre.update_to_bytes;
    };
    {
      kind = Codec.User_public;
      sample = Tre.user_public_to_bytes prms alice_pub;
      decode_reencode = re Tre.user_public_of_bytes Tre.user_public_to_bytes;
    };
    {
      kind = Codec.Server_public;
      sample = Tre.server_public_to_bytes prms srv_pub;
      decode_reencode = re Tre.server_public_of_bytes Tre.server_public_to_bytes;
    };
    {
      kind = Codec.Bls_public;
      sample = Bls.public_to_bytes prms bls_pub;
      decode_reencode = re Bls.public_of_bytes Bls.public_to_bytes;
    };
    {
      kind = Codec.Bls_signature;
      sample = Bls.signature_to_bytes prms bls_sig;
      decode_reencode = re Bls.signature_of_bytes Bls.signature_to_bytes;
    };
    {
      kind = Codec.Epoch_key;
      sample = Key_insulation.to_bytes prms ek;
      decode_reencode = re Key_insulation.of_bytes Key_insulation.to_bytes;
    };
    {
      kind = Codec.Threshold_partial;
      sample = Threshold_server.partial_to_bytes prms partial;
      decode_reencode =
        re Threshold_server.partial_of_bytes Threshold_server.partial_to_bytes;
    };
    {
      kind = Codec.Multi_receiver;
      sample = Multi_server.receiver_public_to_bytes prms multi_pk;
      decode_reencode =
        re Multi_server.receiver_public_of_bytes Multi_server.receiver_public_to_bytes;
    };
    (* Daemon protocol messages: adversary-facing by definition (they
       arrive over a listening socket), so they get the same treatment
       as the cryptographic objects. *)
    {
      kind = Codec.Net_hello;
      sample =
        Netmsg.hello_to_bytes prms
          {
            Netmsg.origin = "utc";
            granularity_us = 1_000_000;
            current_epoch = 42;
            server_g = srv_pub.Tre.Server.g;
            server_sg = srv_pub.Tre.Server.sg;
          };
      decode_reencode = re Netmsg.hello_of_bytes Netmsg.hello_to_bytes;
    };
    {
      kind = Codec.Net_subscribe;
      sample = Netmsg.subscribe_to_bytes prms;
      decode_reencode =
        re Netmsg.subscribe_of_bytes (fun p () -> Netmsg.subscribe_to_bytes p);
    };
    {
      kind = Codec.Net_archive_query;
      sample = Netmsg.archive_query_to_bytes prms "utc#17";
      decode_reencode =
        re Netmsg.archive_query_of_bytes (fun p lbl ->
            Netmsg.archive_query_to_bytes p lbl);
    };
    {
      kind = Codec.Net_archive_miss;
      sample = Netmsg.archive_miss_to_bytes prms "utc#99" Netmsg.Future_refused;
      decode_reencode =
        re Netmsg.archive_miss_of_bytes (fun p (lbl, r) ->
            Netmsg.archive_miss_to_bytes p lbl r);
    };
    {
      kind = Codec.Net_tick;
      sample =
        Netmsg.tick_to_bytes prms
          { Netmsg.tick_label = "utc#17"; sent_at_us = 1_700_000_000_000_000 };
      decode_reencode = re Netmsg.tick_of_bytes Netmsg.tick_to_bytes;
    };
    {
      kind = Codec.Net_stats_query;
      sample = Netmsg.stats_query_to_bytes prms;
      decode_reencode =
        re Netmsg.stats_query_of_bytes (fun p () -> Netmsg.stats_query_to_bytes p);
    };
    {
      kind = Codec.Net_stats;
      sample =
        Netmsg.stats_to_bytes prms
          {
            Netmsg.conns_accepted = 9;
            conns_open = 5;
            subscribers = 4;
            updates_encoded = 17;
            frames_sent = 170;
            bytes_sent = 12_345;
            archive_hits = 3;
            archive_misses = 1;
            protocol_errors = 2;
            slow_disconnects = 1;
            queue_bytes = 0;
            queue_bytes_peak = 4_096;
            send_syscalls = 321;
            poll_wakeups = 55;
            accept_fd_exhausted = 7;
            shard_conns = [ 3; 2; 0 ];
          };
      decode_reencode = re Netmsg.stats_of_bytes Netmsg.stats_to_bytes;
    };
    (* Pairing-delegation traffic: blinded queries and the untrusted
       helpers' replies. The response decoder accepts any canonical
       nonzero GF(p^2) value (no subgroup filter — the hardened check
       upstairs needs the raw value), so its sample uses an honest
       serve over a real wrap. *)
    {
      kind = Codec.Delegate_query;
      sample =
        (let dctx = Delegate.make prms in
         let bl = Delegate.blind dctx rng in
         let w =
           Delegate.wrap dctx bl ~a:srv_pub.Tre.Server.sg ~b:alice_pub.Tre.User.ag
         in
         Netmsg.delegate_query_to_bytes prms
           { Netmsg.query_id = 7; pairs = Delegate.queries2 w });
      decode_reencode = re Netmsg.delegate_query_of_bytes Netmsg.delegate_query_to_bytes;
    };
    {
      kind = Codec.Delegate_response;
      sample =
        (let dctx = Delegate.make prms in
         let bl = Delegate.blind dctx rng in
         let w =
           Delegate.wrap dctx bl ~a:srv_pub.Tre.Server.sg ~b:alice_pub.Tre.User.ag
         in
         Netmsg.delegate_response_to_bytes prms
           { Netmsg.response_id = 7; values = Delegate.serve prms (Delegate.queries1 w) });
      decode_reencode =
        re Netmsg.delegate_response_of_bytes Netmsg.delegate_response_to_bytes;
    };
  ]

let kind_name k = Codec.kind_label k

(* DRBG-driven helpers. *)
let byte rng = Char.code (Hashing.Drbg.generate rng 1).[0]
let u16 rng = (byte rng lsl 8) lor byte rng
let pick rng n = if n <= 0 then 0 else u16 rng mod n

let mutate rng s =
  let n = String.length s in
  match pick rng 6 with
  | 0 ->
      (* single bit flip *)
      if n = 0 then s
      else begin
        let pos = pick rng n and bit = pick rng 8 in
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
          s
      end
  | 1 ->
      (* truncation *)
      String.sub s 0 (pick rng (n + 1))
  | 2 ->
      (* extension with random bytes *)
      s ^ Hashing.Drbg.generate rng (1 + pick rng 16)
  | 3 ->
      (* random splice: overwrite a window *)
      if n = 0 then s
      else begin
        let pos = pick rng n in
        let len = min (n - pos) (1 + pick rng 8) in
        let repl = Hashing.Drbg.generate rng len in
        String.init n (fun i ->
            if i >= pos && i < pos + len then repl.[i - pos] else s.[i])
      end
  | 4 ->
      (* byte swap *)
      if n < 2 then s
      else begin
        let i = pick rng n and j = pick rng n in
        String.init n (fun k -> if k = i then s.[j] else if k = j then s.[i] else s.[k])
      end
  | _ ->
      (* pure garbage of similar length *)
      Hashing.Drbg.generate rng (max 1 (pick rng (n + 20)))

let check_decode ~ctx prms target input =
  match target.decode_reencode prms input with
  | Ok reenc ->
      if reenc <> input then
        Alcotest.fail
          (Printf.sprintf "%s %s: accepted a non-canonical encoding (len %d)" ctx
             (kind_name target.kind) (String.length input))
  | Error _ -> ()
  | exception e ->
      Alcotest.fail
        (Printf.sprintf "%s %s: decoder raised %s" ctx (kind_name target.kind)
           (Printexc.to_string e))

let fuzz_params prms () =
  let ts = targets prms in
  let rng = Hashing.Drbg.create ~seed:("mutations|" ^ prms.Pairing.name) () in
  List.iter
    (fun target ->
      (* The untouched sample must round-trip bit-identically. *)
      (match target.decode_reencode prms target.sample with
      | Ok reenc ->
          if reenc <> target.sample then
            Alcotest.fail (kind_name target.kind ^ ": sample does not re-encode")
      | Error e -> Alcotest.fail (kind_name target.kind ^ ": sample rejected: " ^ e)
      | exception e ->
          Alcotest.fail
            (kind_name target.kind ^ ": sample raised " ^ Printexc.to_string e));
      (* Exhaustive truncations: every proper prefix must be rejected. *)
      for len = 0 to String.length target.sample - 1 do
        let prefix = String.sub target.sample 0 len in
        match target.decode_reencode prms prefix with
        | Ok _ -> Alcotest.fail (kind_name target.kind ^ ": accepted a truncation")
        | Error _ -> ()
        | exception e ->
            Alcotest.fail
              (kind_name target.kind ^ ": truncation raised " ^ Printexc.to_string e)
      done;
      (* Extension by a single zero byte must be rejected (full-consumption). *)
      (match target.decode_reencode prms (target.sample ^ "\x00") with
      | Ok _ -> Alcotest.fail (kind_name target.kind ^ ": accepted trailing garbage")
      | Error _ -> ()
      | exception e ->
          Alcotest.fail
            (kind_name target.kind ^ ": extension raised " ^ Printexc.to_string e));
      (* Seeded mutations. *)
      for _ = 1 to iters_per_kind do
        check_decode ~ctx:"mutation" prms target (mutate rng target.sample)
      done)
    ts

let confusion_params prms () =
  let ts = targets prms in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a.kind <> b.kind then begin
            match b.decode_reencode prms a.sample with
            | Ok _ ->
                Alcotest.fail
                  (Printf.sprintf "%s accepted as %s" (kind_name a.kind)
                     (kind_name b.kind))
            | Error _ -> ()
            | exception e ->
                Alcotest.fail
                  (Printf.sprintf "%s -> %s raised %s" (kind_name a.kind)
                     (kind_name b.kind) (Printexc.to_string e))
          end)
        ts)
    ts

let cross_params_rejection () =
  (* Same kind, different parameter set: the fingerprint must reject even
     when point widths coincide (toy64 vs toy64b, mid128 vs mid128b). The
     small sets keep this all-pairs sweep fast. *)
  let sets = List.filter_map Pairing.by_name [ "toy64"; "toy64b"; "mid128"; "mid128b" ] in
  let with_targets = List.map (fun p -> (p, targets p)) sets in
  List.iter
    (fun (pa, tsa) ->
      List.iter
        (fun (pb, tsb) ->
          if pa.Pairing.name <> pb.Pairing.name then
            List.iter
              (fun ta ->
                let tb_same_kind = List.find (fun t -> t.kind = ta.kind) tsb in
                match tb_same_kind.decode_reencode pb ta.sample with
                | Ok _ ->
                    Alcotest.fail
                      (Printf.sprintf "%s of %s accepted under %s" (kind_name ta.kind)
                         pa.Pairing.name pb.Pairing.name)
                | Error _ -> ()
                | exception e ->
                    Alcotest.fail
                      (Printf.sprintf "%s cross-params raised %s" (kind_name ta.kind)
                         (Printexc.to_string e)))
              tsa)
        with_targets)
    with_targets

let garbage_never_crashes () =
  let prms = Pairing.toy64 () in
  let ts = targets prms in
  let rng = Hashing.Drbg.create ~seed:"pure-garbage" () in
  for _ = 1 to 400 do
    let junk = Hashing.Drbg.generate rng (1 + pick rng 200) in
    List.iter (fun t -> check_decode ~ctx:"garbage" prms t junk) ts;
    (* Garbage prefixed with a plausible envelope for each kind. *)
    List.iter
      (fun t ->
        let framed = String.sub t.sample 0 Codec.header_bytes ^ junk in
        check_decode ~ctx:"framed garbage" prms t framed)
      ts
  done

let () =
  let per_params name =
    match Pairing.by_name name with
    | None -> []
    | Some prms ->
        [
          Alcotest.test_case (name ^ " mutations") `Quick (fuzz_params prms);
          Alcotest.test_case (name ^ " kind confusion") `Quick (confusion_params prms);
        ]
  in
  Alcotest.run "wire-fuzz"
    [
      ("toy64", per_params "toy64");
      ("toy64b", per_params "toy64b");
      ("mid128", per_params "mid128");
      ( "cross",
        [
          Alcotest.test_case "params confusion" `Quick cross_params_rejection;
          Alcotest.test_case "garbage never crashes" `Quick garbage_never_crashes;
        ] );
    ]
