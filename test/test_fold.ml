(* H1's cofactor folded into prepared first arguments.

   Receivers pair the raw H1 lift L of a label against a prepared h.P
   instead of pairing P against H1(label) = h.L. Every value and decision
   must equal the plain path on all five parameter sets — honest inputs,
   tampered ones, sigma = O, G = O, sG = O, and lifts forced to order
   dividing h (h.L = O, where H1 itself re-rolls) — and the fallback
   counter must stay at zero on honest traffic and move when the fold
   cannot decide. Also here: the encryptors' bounded release-key caches. *)

let fallbacks () = (Pairing.stats ()).Pairing.fold_fallbacks

let sets () = List.map (fun n -> Option.get (Pairing.by_name n)) Pairing.all_names

(* A lift of order dividing h (so h.L = O): q times a raw lift. *)
let forced_lift prms tag =
  Curve.mul prms.Pairing.curve prms.Pairing.q
    (Pairing.hash_to_g1_unclamped prms ("forced-lift|" ^ tag))

let fold prms p = Pairing.prepare ~fold_cofactor:true prms p

let check_gt what expected got =
  Alcotest.(check bool) what true (Fp2.equal expected got)

(* --- the Pairing entry points against pairing / pairing_equal_check --- *)

let check_pairing_fold prms =
  let name = prms.Pairing.name in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let rng = Hashing.Drbg.create ~seed:("fold-" ^ name) () in
  let s = Pairing.random_scalar prms rng in
  let sg = Curve.mul curve s g in
  let fsg = fold prms sg and gp = Pairing.prepare prms g in
  let ref_value p label = Pairing.pairing prms p (Pairing.hash_to_g1 prms label) in
  let ref_check p label (c, d) =
    Pairing.pairing_equal_check prms ~lhs:(p, Pairing.hash_to_g1 prms label) ~rhs:(c, d)
  in
  let sign label = Curve.mul curve s (Pairing.hash_to_g1 prms label) in
  (* Honest labels: equal values, accepted equations, no fallback. *)
  let before = fallbacks () in
  for i = 1 to 3 do
    let label = Printf.sprintf "honest-%s-%d" name i in
    check_gt (name ^ ": folded value = pairing") (ref_value sg label)
      (Pairing.h1_pairing_prepared prms fsg label);
    check_gt (name ^ ": plain prepared value = pairing") (ref_value sg label)
      (Pairing.h1_pairing_prepared prms (Pairing.prepare prms sg) label);
    Alcotest.(check bool) (name ^ ": honest equation accepted") true
      (Pairing.h1_equal_check_prepared prms ~lhs:(fsg, label) ~rhs:(gp, sign label))
  done;
  Alcotest.(check int) (name ^ ": no fallback on honest inputs") before (fallbacks ());
  (* Rejects and identity points: the fallback re-runs the plain check. *)
  let label = "edge-" ^ name in
  let sigma = sign label in
  List.iter
    (fun (what, p, c, d) ->
      Alcotest.(check bool) (name ^ ": " ^ what) (ref_check p label (c, d))
        (Pairing.h1_equal_check_prepared prms ~lhs:(fold prms p, label)
           ~rhs:(Pairing.prepare prms c, d)))
    [
      ("tampered sigma", sg, g, Curve.add curve sigma g);
      ("sigma = O", sg, g, Curve.infinity);
      ("G = O", sg, Curve.infinity, sigma);
      ("sG = O", Curve.infinity, g, sigma);
      ("sG = O, sigma = O", Curve.infinity, g, Curve.infinity);
    ];
  check_gt (name ^ ": value with P = O") (ref_value Curve.infinity label)
    (Pairing.h1_pairing_prepared prms (fold prms Curve.infinity) label);
  (* Forced h.L = O: the fast path cannot decide, the fallback must. *)
  for i = 1 to 3 do
    let tag = Printf.sprintf "%s-%d" name i in
    let lift = forced_lift prms tag in
    let label = "forced-" ^ tag in
    let before = fallbacks () in
    check_gt (name ^ ": forced lift, value") (ref_value sg label)
      (Pairing.h1_pairing_prepared_lift prms fsg ~lift label);
    Alcotest.(check int) (name ^ ": release-key fallback counted") (before + 1)
      (fallbacks ());
    Alcotest.(check bool) (name ^ ": forced lift, honest equation") true
      (Pairing.h1_equal_check_prepared_lift prms ~lhs:(fsg, label) ~lift
         ~rhs:(gp, sign label));
    Alcotest.(check int) (name ^ ": verify fallback counted") (before + 2)
      (fallbacks ());
    Alcotest.(check bool) (name ^ ": forced lift, tampered equation") false
      (Pairing.h1_equal_check_prepared_lift prms ~lhs:(fsg, label) ~lift
         ~rhs:(gp, Curve.add curve (sign label) g))
  done;
  (* The batch form pairs a raw point straight against h.sG:
     e(h.sG, S) = e(sG, h.S) for EVERY curve point S, low order and O
     included, so its decisions need no fallback. *)
  let h_of p = Curve.mul curve prms.Pairing.cofactor p in
  List.iter
    (fun (what, raw) ->
      List.iter
        (fun tau ->
          Alcotest.(check bool) (name ^ ": raw sum " ^ what)
            (Pairing.pairing_equal_check prms ~lhs:(sg, h_of raw) ~rhs:(g, tau))
            (Pairing.pairing_equal_check_prepared prms ~lhs:(fsg, raw) ~rhs:(gp, tau)))
        [ Curve.mul curve s (h_of raw); Curve.add curve (Curve.mul curve s (h_of raw)) g ])
    [
      ("in G1", Pairing.hash_to_g1 prms "batch-g1");
      ("raw lift", Pairing.hash_to_g1_unclamped prms "batch-raw");
      ("order | h", forced_lift prms ("batch-" ^ name));
      ("O", Curve.infinity);
    ]

let test_pairing_fold_all_sets () = List.iter check_pairing_fold (sets ())

let prop_fold_labels =
  let prms = Pairing.toy64 () in
  let curve = prms.Pairing.curve in
  let rng = Hashing.Drbg.create ~seed:"fold-qcheck" () in
  let s = Pairing.random_scalar prms rng in
  let sg = Curve.mul curve s prms.Pairing.g in
  let fsg = fold prms sg and gp = Pairing.prepare prms prms.Pairing.g in
  QCheck2.Test.make ~name:"folded = plain on random labels" ~count:40
    QCheck2.Gen.(pair string_printable bool)
    (fun (label, tamper) ->
      let h = Pairing.hash_to_g1 prms label in
      let sigma = Curve.mul curve s h in
      let sigma = if tamper then Curve.add curve sigma h else sigma in
      Fp2.equal
        (Pairing.h1_pairing_prepared prms fsg label)
        (Pairing.pairing prms sg h)
      && Pairing.h1_equal_check_prepared prms ~lhs:(fsg, label) ~rhs:(gp, sigma)
         = Pairing.pairing_equal_check prms ~lhs:(sg, h) ~rhs:(prms.Pairing.g, sigma)
      && Pairing.h1_equal_check_prepared prms ~lhs:(fsg, label) ~rhs:(gp, sigma)
         = not tamper)

(* --- the four call sites against their plain references --- *)

let check_call_sites prms =
  let name = prms.Pairing.name in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let rng = Hashing.Drbg.create ~seed:("fold-sites-" ^ name) () in
  let srv_sec, srv_pub = Tre.Server.keygen prms rng in
  let vrf = Tre.Verifier.create prms srv_pub in
  let upd i = Tre.issue_update prms srv_sec (Printf.sprintf "site-%s-%d" name i) in
  let tamper u = { u with Tre.update_value = Curve.add curve u.Tre.update_value g } in
  let zero u = { u with Tre.update_value = Curve.infinity } in
  let before = fallbacks () in
  let honest = List.init 3 upd in
  List.iter
    (fun u ->
      Alcotest.(check bool) (name ^ ": Verifier = verify_update (honest)")
        (Tre.verify_update prms srv_pub u)
        (Tre.Verifier.verify_update prms vrf u))
    honest;
  Alcotest.(check bool) (name ^ ": verify_updates (honest)") true
    (Tre.Verifier.verify_updates prms vrf honest);
  (* Encryptor = Tre.encrypt on the same rng stream. *)
  let _, usr_pub = Tre.User.keygen prms srv_pub rng in
  let enc = Tre.Encryptor.create prms srv_pub usr_pub in
  let same_ciphertext srv usr enc label =
    let seed = "enc-" ^ name ^ label in
    let a =
      Tre.encrypt prms srv usr ~release_time:label
        (Hashing.Drbg.create ~seed ()) "fold message"
    in
    let b =
      Tre.Encryptor.encrypt enc ~release_time:label
        (Hashing.Drbg.create ~seed ()) "fold message"
    in
    Curve.equal a.Tre.u b.Tre.u && a.Tre.v = b.Tre.v
  in
  List.iter
    (fun label ->
      Alcotest.(check bool) (name ^ ": Encryptor = encrypt") true
        (same_ciphertext srv_pub usr_pub enc label))
    [ "enc-1"; "enc-2"; "enc-1" ];
  (* BLS and threshold partials. *)
  let bls_sec, bls_pub = Bls.keygen prms rng in
  let bvrf = Bls.make_verifier prms bls_pub in
  let system, servers = Threshold_server.setup prms rng ~k:2 ~n:3 in
  let commitment i = List.assoc i (Array.to_list system.Threshold_server.share_commitments) in
  let partial_ref t (p : Threshold_server.partial) =
    Pairing.in_g1 prms p.Threshold_server.value
    && Pairing.pairing_equal_check prms ~lhs:(g, p.Threshold_server.value)
         ~rhs:(commitment p.Threshold_server.server_index, Pairing.hash_to_g1 prms t)
  in
  let partials t = List.map (fun sv -> Threshold_server.issue_partial prms sv t) servers in
  List.iter
    (fun m ->
      let sg = Bls.sign prms bls_sec m in
      Alcotest.(check bool) (name ^ ": Bls.verify_with (honest)") true
        (Bls.verify_with prms bvrf m sg);
      List.iter
        (fun p ->
          Alcotest.(check bool) (name ^ ": verify_partial (honest)") true
            (Threshold_server.verify_partial prms system m p))
        (partials m))
    [ "bls-1"; "bls-2" ];
  Alcotest.(check int) (name ^ ": no fallback on honest traffic") before (fallbacks ());
  (* Tampered and identity inputs: equal decisions (via the fallback). *)
  List.iter
    (fun (what, u) ->
      Alcotest.(check bool) (name ^ ": Verifier = verify_update, " ^ what)
        (Tre.verify_update prms srv_pub u)
        (Tre.Verifier.verify_update prms vrf u);
      let batch = List.hd honest :: u :: List.tl honest in
      Alcotest.(check bool) (name ^ ": verify_updates, " ^ what)
        (List.for_all (Tre.verify_update prms srv_pub) batch)
        (Tre.Verifier.verify_updates prms vrf batch))
    [ ("tampered", tamper (upd 7)); ("sigma = O", zero (upd 8)) ];
  let m = "bls-edge" in
  List.iter
    (fun (what, sg) ->
      Alcotest.(check bool) (name ^ ": Bls.verify_with = verify, " ^ what)
        (Bls.verify prms bls_pub m sg) (Bls.verify_with prms bvrf m sg))
    [ ("tampered", Curve.add curve (Bls.sign prms bls_sec m) g); ("sigma = O", Curve.infinity) ];
  List.iter
    (fun (what, p) ->
      Alcotest.(check bool) (name ^ ": verify_partial = reference, " ^ what)
        (partial_ref m p)
        (Threshold_server.verify_partial prms system m p))
    (List.concat_map
       (fun (p : Threshold_server.partial) ->
         [ ("tampered", { p with Threshold_server.value = Curve.add curve p.value g });
           ("sigma = O", { p with Threshold_server.value = Curve.infinity });
           ("other label", Threshold_server.issue_partial prms (List.hd servers) "x") ])
       (partials m));
  (* Degenerate server keys, built by hand (keygen refuses them). *)
  let u = upd 9 in
  List.iter
    (fun (what, pub) ->
      let vrf' = Tre.Verifier.create prms pub in
      List.iter
        (fun u ->
          Alcotest.(check bool) (name ^ ": Verifier = verify_update, " ^ what)
            (Tre.verify_update prms pub u)
            (Tre.Verifier.verify_update prms vrf' u);
          Alcotest.(check bool) (name ^ ": verify_updates, " ^ what)
            (Tre.verify_update prms pub u)
            (Tre.Verifier.verify_updates prms vrf' [ u ]))
        [ u; zero u ])
    [
      ("sG = O", { srv_pub with Tre.Server.sg = Curve.infinity });
      ("G = O", { srv_pub with Tre.Server.g = Curve.infinity });
    ];
  (* sG = O: a receiver key (aG, O) validates, every release key is 1,
     and the encryptor must still match Tre.encrypt. *)
  let zero_srv = { srv_pub with Tre.Server.sg = Curve.infinity } in
  let zero_usr = { usr_pub with Tre.User.asg = Curve.infinity } in
  let zero_enc = Tre.Encryptor.create prms zero_srv zero_usr in
  Alcotest.(check bool) (name ^ ": Encryptor = encrypt, sG = O") true
    (same_ciphertext zero_srv zero_usr zero_enc "enc-zero")

let test_call_sites_all_sets () = List.iter check_call_sites (sets ())

(* --- bounded encryptor caches --- *)

let test_encryptor_cache_bounded () =
  let prms = Pairing.toy64 () in
  let rng = Hashing.Drbg.create ~seed:"fold-cache" () in
  let _, srv_pub = Tre.Server.keygen prms rng in
  let _, usr_pub = Tre.User.keygen prms srv_pub rng in
  let enc = Tre.Encryptor.create prms srv_pub usr_pub in
  let cap = Tre.Encryptor.cache_capacity in
  (* The key is valid, so Tre.encrypt is its validation followed by
     encrypt_prevalidated; validate once instead of 10 000 times. *)
  Alcotest.(check bool) "receiver key valid" true
    (Tre.validate_receiver_key prms srv_pub usr_pub);
  for i = 1 to 10_000 do
    let label = Printf.sprintf "cache-%d" i in
    let seed = "cache-rng-" ^ label in
    let a =
      Tre.encrypt_prevalidated prms srv_pub usr_pub ~release_time:label
        (Hashing.Drbg.create ~seed ()) "m"
    in
    let b =
      Tre.Encryptor.encrypt enc ~release_time:label (Hashing.Drbg.create ~seed ()) "m"
    in
    if not (Curve.equal a.Tre.u b.Tre.u && a.Tre.v = b.Tre.v) then
      Alcotest.failf "Encryptor differs from encrypt at label %d" i;
    if Tre.Encryptor.cached enc > cap then
      Alcotest.failf "cache holds %d > %d entries" (Tre.Encryptor.cached enc) cap
  done;
  Alcotest.(check int) "Tre cache at its bound" cap (Tre.Encryptor.cached enc);
  (* An evicted label recomputes to the same ciphertext. *)
  let seed = "cache-rng-again" in
  let a =
    Tre.encrypt prms srv_pub usr_pub ~release_time:"cache-1"
      (Hashing.Drbg.create ~seed ()) "m"
  in
  let b = Tre.Encryptor.encrypt enc ~release_time:"cache-1" (Hashing.Drbg.create ~seed ()) "m" in
  Alcotest.(check bool) "evicted label re-derived" true
    (Curve.equal a.Tre.u b.Tre.u && a.Tre.v = b.Tre.v);
  (* Id_tre's encryptor: same bound, same outputs as Id_tre.encrypt. *)
  let _, id_pub = Id_tre.Server.keygen prms rng in
  let ienc = Id_tre.Encryptor.create prms id_pub in
  for i = 1 to cap + 50 do
    let id = Printf.sprintf "id-%d" (i mod 7) and label = Printf.sprintf "t-%d" i in
    let seed = "id-cache-" ^ label in
    let a = Id_tre.encrypt prms id_pub id ~release_time:label (Hashing.Drbg.create ~seed ()) "m" in
    let b = Id_tre.Encryptor.encrypt ienc id ~release_time:label (Hashing.Drbg.create ~seed ()) "m" in
    if not (Curve.equal a.Id_tre.u b.Id_tre.u && a.Id_tre.v = b.Id_tre.v) then
      Alcotest.failf "Id_tre.Encryptor differs from encrypt at %d" i
  done;
  Alcotest.(check int) "Id_tre cache at its bound" cap (Id_tre.Encryptor.cached ienc)

let () =
  Alcotest.run "fold"
    [
      ( "pairing",
        Alcotest.test_case "all sets vs plain path" `Quick test_pairing_fold_all_sets
        :: List.map QCheck_alcotest.to_alcotest [ prop_fold_labels ] );
      ( "call sites",
        [ Alcotest.test_case "all sets vs references" `Quick test_call_sites_all_sets ] );
      ( "encryptor cache",
        [ Alcotest.test_case "bounded, bit-identical" `Quick test_encryptor_cache_bounded ] );
    ]
