(* The heart of the reproduction: the modified Tate pairing must be
   bilinear, non-degenerate and consistent across parameter sets, and the
   DDH oracle it induces must decide DDH correctly (the "Gap" property of
   Section 4 of the paper). *)

module B = Bigint

let prms = Pairing.toy64 ()
let curve = prms.Pairing.curve
let g = prms.Pairing.g
let q = prms.Pairing.q
let rng = Hashing.Drbg.create ~seed:"pairing-tests" ()

let gt = Alcotest.testable (Fp2.pp prms.Pairing.fp) Fp2.equal

let gen_scalar = QCheck2.Gen.(map B.of_int (int_range 1 1_000_000))

let test_non_degenerate () =
  let e_gg = Pairing.pairing prms g g in
  Alcotest.(check bool) "e(G,G) <> 1" false (Pairing.gt_equal e_gg (Pairing.gt_one prms));
  (* e(G,G) has order exactly q: killed by q, not by smaller shown via q prime. *)
  Alcotest.check gt "e(G,G)^q = 1" (Pairing.gt_one prms) (Pairing.gt_pow prms e_gg q)

let test_infinity_pairs_to_one () =
  Alcotest.check gt "e(O,G) = 1" (Pairing.gt_one prms)
    (Pairing.pairing prms Curve.infinity g);
  Alcotest.check gt "e(G,O) = 1" (Pairing.gt_one prms)
    (Pairing.pairing prms g Curve.infinity)

let prop_bilinear_left =
  QCheck2.Test.make ~name:"e(aP,Q) = e(P,Q)^a" ~count:25 gen_scalar (fun a ->
      let lhs = Pairing.pairing prms (Curve.mul curve a g) g in
      let rhs = Pairing.gt_pow prms (Pairing.pairing prms g g) a in
      Pairing.gt_equal lhs rhs)

let prop_bilinear_right =
  QCheck2.Test.make ~name:"e(P,bQ) = e(P,Q)^b" ~count:25 gen_scalar (fun b ->
      let lhs = Pairing.pairing prms g (Curve.mul curve b g) in
      let rhs = Pairing.gt_pow prms (Pairing.pairing prms g g) b in
      Pairing.gt_equal lhs rhs)

let prop_bilinear_full =
  QCheck2.Test.make ~name:"e(aP,bQ) = e(P,Q)^ab" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let lhs = Pairing.pairing prms (Curve.mul curve a g) (Curve.mul curve b g) in
      let rhs = Pairing.gt_pow prms (Pairing.pairing prms g g) (B.mul a b) in
      Pairing.gt_equal lhs rhs)

let prop_additive_in_first =
  QCheck2.Test.make ~name:"e(P1+P2,Q) = e(P1,Q).e(P2,Q)" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let p1 = Curve.mul curve a g and p2 = Curve.mul curve b g in
      let lhs = Pairing.pairing prms (Curve.add curve p1 p2) g in
      let rhs = Pairing.gt_mul prms (Pairing.pairing prms p1 g) (Pairing.pairing prms p2 g) in
      Pairing.gt_equal lhs rhs)

let prop_additive_in_second =
  QCheck2.Test.make ~name:"e(P,Q1+Q2) = e(P,Q1).e(P,Q2)" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let q1 = Curve.mul curve a g and q2 = Curve.mul curve b g in
      let lhs = Pairing.pairing prms g (Curve.add curve q1 q2) in
      let rhs = Pairing.gt_mul prms (Pairing.pairing prms g q1) (Pairing.pairing prms g q2) in
      Pairing.gt_equal lhs rhs)

let prop_hashed_points_pair_consistently =
  (* Bilinearity must also hold on hash-derived points (the H1 images the
     schemes actually pair). *)
  QCheck2.Test.make ~name:"e(a.H1(s), G) = e(H1(s), aG)" ~count:10
    QCheck2.Gen.(pair gen_scalar (small_string ~gen:printable))
    (fun (a, s) ->
      let h = Pairing.hash_to_g1 prms s in
      Pairing.gt_equal
        (Pairing.pairing prms (Curve.mul curve a h) g)
        (Pairing.pairing prms h (Curve.mul curve a g)))

let test_pairing_product () =
  (* prod of pairings with shared final exponentiation must equal the
     product of individual pairings. *)
  let pts = List.map (fun k -> Curve.mul curve (B.of_int k) g) [ 3; 5; 7; 11 ] in
  let pairs = List.map (fun p -> (p, Curve.mul curve (B.of_int 13) p)) pts in
  let expected =
    List.fold_left
      (fun acc (a, b) -> Pairing.gt_mul prms acc (Pairing.pairing prms a b))
      (Pairing.gt_one prms) pairs
  in
  Alcotest.check gt "product" expected (Pairing.pairing_product prms pairs);
  Alcotest.check gt "empty product" (Pairing.gt_one prms) (Pairing.pairing_product prms []);
  (* pairing_check: e(aG, bG) * e(-abG, G) = 1. *)
  let a = B.of_int 1234 and b = B.of_int 5678 in
  let ab = B.erem (B.mul a b) q in
  Alcotest.(check bool) "check true" true
    (Pairing.pairing_check prms
       [
         (Curve.mul curve a g, Curve.mul curve b g);
         (Curve.neg curve (Curve.mul curve ab g), g);
       ]);
  Alcotest.(check bool) "check false" false
    (Pairing.pairing_check prms
       [ (Curve.mul curve a g, Curve.mul curve b g); (Curve.neg curve g, g) ]);
  (* equal_check agrees with naive comparison. *)
  Alcotest.(check bool) "equal_check true" true
    (Pairing.pairing_equal_check prms
       ~lhs:(Curve.mul curve a g, Curve.mul curve b g)
       ~rhs:(g, Curve.mul curve ab g));
  Alcotest.(check bool) "equal_check false" false
    (Pairing.pairing_equal_check prms
       ~lhs:(Curve.mul curve a g, Curve.mul curve b g)
       ~rhs:(g, g))

let test_ddh_oracle () =
  for _ = 1 to 10 do
    let x = Pairing.random_scalar prms rng and y = Pairing.random_scalar prms rng in
    let a = Curve.mul curve x g and b = Curve.mul curve y g in
    let good = Curve.mul curve (B.erem (B.mul x y) q) g in
    Alcotest.(check bool) "accepts DDH tuple" true (Pairing.ddh prms g a b good);
    let z = Pairing.random_scalar prms rng in
    if not (B.equal z (B.erem (B.mul x y) q)) then begin
      let bad = Curve.mul curve z g in
      Alcotest.(check bool) "rejects non-DDH tuple" false (Pairing.ddh prms g a b bad)
    end
  done

let test_pairing_symmetric () =
  (* With a distortion map, e^(P,Q) = e^(Q,P) on the cyclic subgroup. *)
  let a = Curve.mul curve (B.of_int 123456) g in
  let b = Curve.mul curve (B.of_int 987654) g in
  Alcotest.check gt "symmetric" (Pairing.pairing prms a b) (Pairing.pairing prms b a)

let test_gt_ops () =
  let e = Pairing.pairing prms g g in
  Alcotest.check gt "inv" (Pairing.gt_one prms) (Pairing.gt_mul prms e (Pairing.gt_inv prms e));
  Alcotest.check gt "pow 0" (Pairing.gt_one prms) (Pairing.gt_pow prms e B.zero);
  Alcotest.check gt "pow 1" e (Pairing.gt_pow prms e B.one)

let test_all_parameter_sets_valid () =
  (* Forces validation inside Pairing.make for every named set and checks
     a pairing identity at each size. *)
  List.iter
    (fun name ->
      match Pairing.by_name name with
      | None -> Alcotest.fail ("missing params " ^ name)
      | Some prms ->
          let g = prms.Pairing.g in
          let curve = prms.Pairing.curve in
          let a = B.of_int 7 and b = B.of_int 11 in
          let lhs =
            Pairing.pairing prms (Curve.mul curve a g) (Curve.mul curve b g)
          in
          let rhs =
            Pairing.gt_pow prms (Pairing.pairing prms g g) (B.of_int 77)
          in
          Alcotest.(check bool) (name ^ " bilinear") true (Pairing.gt_equal lhs rhs))
    Pairing.all_names

let test_by_name_unknown () =
  Alcotest.(check bool) "unknown" true (Pairing.by_name "nope" = None)

let test_make_validation () =
  (* q does not divide p+1. *)
  let p = B.of_string "0x83b0f2e27d38d3059d8287" in
  Alcotest.check_raises "bad q"
    (Invalid_argument "Pairing.make: q does not divide p+1") (fun () ->
      ignore (Pairing.make ~name:"bad" ~p ~q:(B.of_int 101) ()));
  Alcotest.check_raises "p not prime"
    (Invalid_argument "Pairing.make: p not prime") (fun () ->
      ignore (Pairing.make ~name:"bad" ~p:(B.of_int 100) ~q:(B.of_int 101) ()))

let test_h2_properties () =
  let e = Pairing.pairing prms g g in
  let m1 = Pairing.h2 prms e 32 and m2 = Pairing.h2 prms e 32 in
  Alcotest.(check string) "deterministic" m1 m2;
  Alcotest.(check int) "length" 100 (String.length (Pairing.h2 prms e 100));
  let e' = Pairing.gt_pow prms e B.two in
  Alcotest.(check bool) "different inputs differ" false (Pairing.h2 prms e' 32 = m1)

(* --- the second curve family: y^2 = x^3 + 1, distortion zeta --- *)

let test_family2_bilinear_nondegenerate () =
  let prms = Pairing.toy64b () in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  Alcotest.(check bool) "family recorded" true (prms.Pairing.family = Pairing.Y2_x3_1);
  let e_gg = Pairing.pairing prms g g in
  Alcotest.(check bool) "non-degenerate" false
    (Pairing.gt_equal e_gg (Pairing.gt_one prms));
  Alcotest.(check bool) "order q" true
    (Pairing.gt_equal (Pairing.gt_pow prms e_gg prms.Pairing.q) (Pairing.gt_one prms));
  (* Bilinearity over a grid of scalars. *)
  List.iter
    (fun (a, b) ->
      let lhs =
        Pairing.pairing prms
          (Curve.mul curve (B.of_int a) g)
          (Curve.mul curve (B.of_int b) g)
      in
      let rhs = Pairing.gt_pow prms e_gg (B.of_int (a * b)) in
      Alcotest.(check bool)
        (Printf.sprintf "e(%dG,%dG) = e(G,G)^%d" a b (a * b))
        true (Pairing.gt_equal lhs rhs))
    [ (2, 3); (7, 11); (1, 999); (123, 456); (65537, 2) ];
  (* Symmetry and additivity. *)
  let p1 = Curve.mul curve (B.of_int 1234) g in
  let p2 = Curve.mul curve (B.of_int 98765) g in
  Alcotest.(check bool) "symmetric" true
    (Pairing.gt_equal (Pairing.pairing prms p1 p2) (Pairing.pairing prms p2 p1));
  Alcotest.(check bool) "additive" true
    (Pairing.gt_equal
       (Pairing.pairing prms (Curve.add curve p1 p2) g)
       (Pairing.gt_mul prms (Pairing.pairing prms p1 g) (Pairing.pairing prms p2 g)))

let test_family2_full_tre_roundtrip () =
  (* The whole scheme stack must run unchanged over the second GDH-group
     instantiation — the paper's "any Gap Diffie-Hellman group". *)
  let prms = Pairing.toy64b () in
  let rng = Hashing.Drbg.create ~seed:"family2-tre" () in
  let srv_sec, srv_pub = Tre.Server.keygen prms rng in
  let alice_sec, alice_pub = Tre.User.keygen prms srv_pub rng in
  Alcotest.(check bool) "receiver key validates" true
    (Tre.validate_receiver_key prms srv_pub alice_pub);
  let t = "family2-epoch" in
  let ct = Tre.encrypt prms srv_pub alice_pub ~release_time:t rng "over x^3 + 1" in
  let upd = Tre.issue_update prms srv_sec t in
  Alcotest.(check bool) "update verifies" true (Tre.verify_update prms srv_pub upd);
  Alcotest.(check string) "roundtrip" "over x^3 + 1" (Tre.decrypt prms alice_sec upd ct);
  (* Wrong update still yields garbage. *)
  let other = Tre.issue_update prms srv_sec "other" in
  let relabeled = { other with Tre.update_time = t } in
  Alcotest.(check bool) "time lock" false
    (Tre.decrypt prms alice_sec relabeled ct = "over x^3 + 1")

let test_family2_ddh_and_products () =
  let prms = Pairing.toy64b () in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let rng = Hashing.Drbg.create ~seed:"family2-ddh" () in
  let x = Pairing.random_scalar prms rng and y = Pairing.random_scalar prms rng in
  let xy = B.erem (B.mul x y) prms.Pairing.q in
  Alcotest.(check bool) "ddh accepts" true
    (Pairing.ddh prms g (Curve.mul curve x g) (Curve.mul curve y g)
       (Curve.mul curve xy g));
  Alcotest.(check bool) "ddh rejects" false
    (Pairing.ddh prms g (Curve.mul curve x g) (Curve.mul curve y g) g);
  (* pairing_product consistency (exercises the per-miller inversion). *)
  let pairs = [ (Curve.mul curve x g, g); (g, Curve.mul curve y g) ] in
  let expected =
    Pairing.gt_mul prms
      (Pairing.pairing prms (Curve.mul curve x g) g)
      (Pairing.pairing prms g (Curve.mul curve y g))
  in
  Alcotest.(check bool) "product" true
    (Pairing.gt_equal expected (Pairing.pairing_product prms pairs))

let test_family2_make_validation () =
  (* Family-1 parameters (p = 1 mod 3) must be refused for family 2. *)
  let p = B.of_string "0x83b0f2e27d38d3059d8287" in
  let q = B.of_string "0xa2a8bbf28af65885" in
  if B.equal (B.erem p (B.of_int 3)) (B.of_int 2) then () (* wrong fixture *)
  else
    Alcotest.check_raises "family mismatch"
      (Invalid_argument "Pairing.make: p must be 2 mod 3 for the x^3 + 1 family")
      (fun () -> ignore (Pairing.make ~family:Pairing.Y2_x3_1 ~name:"bad" ~p ~q ()))

(* --- prepared (precomputed Miller-loop) pairings --- *)

(* Bit-identity, not just gt_equal: prepared pairings must return the very
   same canonical field element, so cached values are interchangeable with
   freshly computed ones everywhere in the schemes. *)
let check_prepared_equivalence prms =
  let name = prms.Pairing.name in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let q = prms.Pairing.q in
  let h = Pairing.hash_to_g1 prms ("prep-" ^ name) in
  let pts =
    [ g; h; Curve.mul curve (B.of_int 7) g; Curve.neg curve h;
      Curve.mul curve (B.pred q) g; Curve.infinity ]
  in
  List.iter
    (fun p ->
      let prep = Pairing.prepare prms p in
      List.iter
        (fun q' ->
          let plain = Pairing.pairing prms p q' in
          let fast = Pairing.pairing_prepared prms prep q' in
          Alcotest.(check bool)
            (Printf.sprintf "%s: prepared = plain" name)
            true (Fp2.equal plain fast))
        pts)
    pts;
  (* Product / check / equal_check variants. *)
  let a = B.of_int 1234 and b = B.of_int 5678 in
  let ab = B.erem (B.mul a b) q in
  let pa = Curve.mul curve a g and pb = Curve.mul curve b g in
  let prep_pa = Pairing.prepare prms pa in
  Alcotest.(check bool) (name ^ ": product prepared") true
    (Fp2.equal
       (Pairing.pairing_product prms [ (pa, pb); (h, g) ])
       (Pairing.pairing_product_prepared prms
          [ (prep_pa, pb); (Pairing.prepare prms h, g) ]));
  Alcotest.(check bool) (name ^ ": check prepared true") true
    (Pairing.pairing_check_prepared prms
       [ (prep_pa, pb); (Pairing.prepare prms (Curve.neg curve (Curve.mul curve ab g)), g) ]);
  Alcotest.(check bool) (name ^ ": check prepared false") false
    (Pairing.pairing_check_prepared prms
       [ (prep_pa, pb); (Pairing.prepare prms (Curve.neg curve g), g) ]);
  Alcotest.(check bool) (name ^ ": equal_check prepared true") true
    (Pairing.pairing_equal_check_prepared prms
       ~lhs:(prep_pa, pb)
       ~rhs:(Lazy.force prms.Pairing.g_prep, Curve.mul curve ab g));
  Alcotest.(check bool) (name ^ ": equal_check prepared false") false
    (Pairing.pairing_equal_check_prepared prms
       ~lhs:(prep_pa, pb)
       ~rhs:(Lazy.force prms.Pairing.g_prep, g));
  (* Fixed-base comb multiplication of the generator. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) (name ^ ": mul_g = mul") true
        (Curve.equal (Pairing.mul_g prms k) (Curve.mul curve k g)))
    [ B.zero; B.one; B.of_int 2; B.pred q; q; B.succ q ]

let test_prepared_toy_sets () =
  check_prepared_equivalence (Pairing.toy64 ());
  check_prepared_equivalence (Pairing.toy64b ())

let test_prepared_all_sets () =
  List.iter
    (fun name ->
      match Pairing.by_name name with
      | None -> Alcotest.fail ("missing params " ^ name)
      | Some prms -> check_prepared_equivalence prms)
    Pairing.all_names

let prop_prepared_random_points =
  QCheck2.Test.make ~name:"prepared pairing = plain pairing (random)" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let p = Curve.mul curve a g and q' = Curve.mul curve b g in
      Fp2.equal
        (Pairing.pairing prms p q')
        (Pairing.pairing_prepared prms (Pairing.prepare prms p) q'))

(* --- kernel vs pinned reference: the fast pairing stack (NAF Miller
   loop, cyclotomic final exponentiation, generator fast-path) must stay
   bit-identical to the functional reference route --- *)

let check_kernel_vs_reference prms =
  let name = prms.Pairing.name in
  let fp = prms.Pairing.fp in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let q = prms.Pairing.q in
  let rng = Hashing.Drbg.create ~seed:("kernel-diff-" ^ name) () in
  let rand_pt () = Curve.mul curve (Pairing.random_scalar prms rng) g in
  (* Full pairing: bit-identity on random subgroup points, on the
     generator fast-path (first argument = G hits the prepared
     schedule), and on infinity in either slot. *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (name ^ ": pairing = pairing_ref") true
        (Fp2.equal (Pairing.pairing prms a b) (Pairing.pairing_ref prms a b)))
    [ (g, g); (rand_pt (), rand_pt ()); (g, rand_pt ()); (rand_pt (), g);
      (Curve.infinity, g); (g, Curve.infinity);
      (Curve.infinity, Curve.infinity) ];
  (* Miller loops: the raw NAF and binary accumulators differ by GF(p)*
     factors, so their contract is agreement after (the pinned generic)
     final exponentiation. *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (name ^ ": miller loops agree post-exp") true
        (Fp2.equal
           (Pairing.final_exponentiation_ref prms (Pairing.miller_loop prms a b))
           (Pairing.final_exponentiation_ref prms
              (Pairing.miller_loop_ref prms a b))))
    [ (rand_pt (), rand_pt ()); (g, rand_pt ()); (rand_pt (), g) ];
  (* Cyclotomic final exponentiation: bit-identical to the generic path
     on EVERY nonzero input, not just Miller values — the easy part
     f^(p-1) lands in the norm-1 subgroup from any starting point. *)
  let rand_fp () =
    Fp.of_bigint fp
      (B.erem
         (B.of_bytes_be (Hashing.Drbg.generate rng (Fp.byte_length fp + 3)))
         prms.Pairing.p)
  in
  for _ = 1 to 8 do
    let f = Fp2.make ~re:(rand_fp ()) ~im:(rand_fp ()) in
    if not (Fp2.is_zero fp f) then
      Alcotest.(check bool) (name ^ ": final exp bit-identical") true
        (Fp2.equal
           (Pairing.final_exponentiation prms f)
           (Pairing.final_exponentiation_ref prms f))
  done;
  let mv = Pairing.miller_loop_ref prms (rand_pt ()) (rand_pt ()) in
  Alcotest.(check bool) (name ^ ": final exp on a miller value") true
    (Fp2.equal
       (Pairing.final_exponentiation prms mv)
       (Pairing.final_exponentiation_ref prms mv));
  Alcotest.(check bool) (name ^ ": final exp of 1 is 1") true
    (Fp2.equal
       (Pairing.final_exponentiation prms (Fp2.one fp))
       (Pairing.final_exponentiation_ref prms (Fp2.one fp)));
  (* Low-order first arguments (order divides the even cofactor, so the
     sample includes even-order points): the NAF schedule degenerates on
     these — its chord steps can hit T = dP with coincident operands —
     and must fall back to the binary loop, which mirrors the reference
     branch for branch. Still bit-identical. *)
  let qpt = rand_pt () in
  List.iter
    (fun i ->
      let l =
        Curve.mul curve q
          (Pairing.hash_to_g1_unclamped prms (Printf.sprintf "low-%s-%d" name i))
      in
      Alcotest.(check bool) (name ^ ": low-order pairing = ref") true
        (Fp2.equal (Pairing.pairing prms l qpt) (Pairing.pairing_ref prms l qpt)))
    [ 1; 2; 3; 4 ]

let test_kernel_vs_ref_toy () =
  check_kernel_vs_reference (Pairing.toy64 ());
  check_kernel_vs_reference (Pairing.toy64b ())

let test_kernel_vs_ref_all_sets () =
  List.iter
    (fun name -> check_kernel_vs_reference (Option.get (Pairing.by_name name)))
    Pairing.all_names

let prop_kernel_pairing_matches_ref =
  QCheck2.Test.make ~name:"pairing = pairing_ref (random scalars)" ~count:20
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let p = Curve.mul curve a g and q' = Curve.mul curve b g in
      Fp2.equal (Pairing.pairing prms p q') (Pairing.pairing_ref prms p q'))

(* --- the product-of-pairings kernel vs the pinned reference: one
   interleaved Miller loop + one final exponentiation (or the GF(p)
   membership decision) must stay bit-identical to multiplying separate
   [pairing_ref] results, for every pair count, argument shape and
   degeneracy the verifiers can feed it --- *)

let check_product_vs_reference prms =
  let name = prms.Pairing.name in
  let fp = prms.Pairing.fp in
  let curve = prms.Pairing.curve in
  let g = prms.Pairing.g in
  let q = prms.Pairing.q in
  let rng = Hashing.Drbg.create ~seed:("product-diff-" ^ name) () in
  let rand_pt () = Curve.mul curve (Pairing.random_scalar prms rng) g in
  let ref_product pairs =
    List.fold_left
      (fun acc (a, b) -> Fp2.mul fp acc (Pairing.pairing_ref prms a b))
      (Fp2.one fp) pairs
  in
  let check_pairs label pairs =
    let expected = ref_product pairs in
    (* The raw interleaved Miller product, pushed through the PINNED
       generic final exponentiation, must hit the reference value
       bit-for-bit — and so must the kernel [pairing_product]. *)
    Alcotest.(check bool) (name ^ ": miller_product = ref after exp " ^ label)
      true
      (Fp2.equal
         (Pairing.final_exponentiation_ref prms
            (Pairing.miller_product prms pairs))
         expected);
    Alcotest.(check bool) (name ^ ": pairing_product = ref " ^ label) true
      (Fp2.equal (Pairing.pairing_product prms pairs) expected);
    (* The no-final-exp membership decision must equal the reference
       decision exactly — accept AND reject. *)
    Alcotest.(check bool) (name ^ ": check_product_one = ref decision " ^ label)
      (Fp2.is_one fp expected)
      (Pairing.check_product_one prms pairs)
  in
  (* N = 1..4 random pairs. *)
  for n = 1 to 4 do
    check_pairs
      (Printf.sprintf "N=%d" n)
      (List.init n (fun _ -> (rand_pt (), rand_pt ())))
  done;
  (* A genuinely canceling product (the verification-equation shape) and
     a tampered one: both decisions pinned. *)
  let a = B.of_int 1234 and b = B.of_int 5678 in
  let ab = B.erem (B.mul a b) q in
  check_pairs "canceling"
    [ (Curve.mul curve a g, Curve.mul curve b g);
      (Curve.mul curve ab g, Curve.neg curve g) ];
  check_pairs "tampered"
    [ (Curve.mul curve a g, Curve.mul curve b g);
      (Curve.mul curve (B.succ ab) g, Curve.neg curve g) ];
  (* Infinity in either slot drops the pair; the empty product is 1. *)
  check_pairs "infinity slots"
    [ (Curve.infinity, rand_pt ()); (rand_pt (), Curve.infinity);
      (rand_pt (), rand_pt ()) ];
  check_pairs "empty" [];
  check_pairs "all infinity" [ (Curve.infinity, Curve.infinity) ];
  (* Low-order first arguments degenerate the shared NAF walk mid-loop
     (coincident chord operands); the kernel must evict exactly that pair
     to its own binary schedule and still match the reference. *)
  let low i =
    Curve.mul curve q
      (Pairing.hash_to_g1_unclamped prms (Printf.sprintf "plow-%s-%d" name i))
  in
  check_pairs "low-order first arg" [ (low 1, rand_pt ()); (rand_pt (), rand_pt ()) ];
  check_pairs "two low-order" [ (low 2, rand_pt ()); (low 3, rand_pt ()) ];
  (* Mixed prepared/live products, including a degenerate (binary
     fallback) prepared schedule that cannot share the NAF squaring
     chain, and the generator's construction-time schedule. *)
  let pa = rand_pt () and pb = rand_pt () and qb = rand_pt () in
  let pc = rand_pt () and qc = rand_pt () in
  let pl = low 4 and ql = rand_pt () in
  let mixed =
    [ (Pairing.Prepared (Pairing.prepare prms pa), pb);
      (Pairing.Point g, qb);
      (Pairing.Point pc, qc);
      (Pairing.Prepared (Pairing.prepare prms pl), ql) ]
  in
  let expected = ref_product [ (pa, pb); (g, qb); (pc, qc); (pl, ql) ] in
  Alcotest.(check bool) (name ^ ": mixed product = ref") true
    (Fp2.equal
       (Pairing.final_exponentiation_ref prms
          (Pairing.miller_product_mixed prms mixed))
       expected);
  Alcotest.(check bool) (name ^ ": mixed check = ref decision")
    (Fp2.is_one fp expected)
    (Pairing.check_product_one_mixed prms mixed);
  (* And the mixed decision on a canceling product. *)
  Alcotest.(check bool) (name ^ ": mixed canceling accepts") true
    (Pairing.check_product_one_mixed prms
       [ (Pairing.Prepared (Lazy.force prms.Pairing.g_prep),
          Curve.mul curve ab g);
         (Pairing.Point (Curve.mul curve a g),
          Curve.neg curve (Curve.mul curve b g)) ])

let test_product_vs_ref_toy () =
  check_product_vs_reference (Pairing.toy64 ());
  check_product_vs_reference (Pairing.toy64b ())

let test_product_vs_ref_all_sets () =
  List.iter
    (fun name -> check_product_vs_reference (Option.get (Pairing.by_name name)))
    Pairing.all_names

let prop_product_matches_ref =
  QCheck2.Test.make ~name:"check_product_one = ref decision (random)" ~count:15
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (a, b) ->
      let pairs =
        [ (Curve.mul curve a g, Curve.mul curve b g);
          (Curve.mul curve (B.erem (B.mul a b) q) g, Curve.neg curve g) ]
      in
      let expected =
        Fp2.is_one prms.Pairing.fp
          (List.fold_left
             (fun acc (x, y) ->
               Pairing.gt_mul prms acc (Pairing.pairing_ref prms x y))
             (Pairing.gt_one prms) pairs)
      in
      Pairing.check_product_one prms pairs = expected)

(* The product kernel's verify path must stay allocation-lean: every
   accumulator, line scratch and window-table slot lives in the
   per-domain register file, so a steady-state [check_product_one_mixed]
   call touches the minor heap only incidentally. The bound is ~10x the
   measured steady state (2-6 words/call) and far below what any of the
   known regressions cost — the functional prepared-line path was
   ~840-47000 words/call, and even a single per-iteration closure in the
   Miller bit loop shows up at >100 apparent words/call. Measured over a
   batch with a fresh minor arena so a GC boundary (where OCaml 5's
   allocation accounting jumps) cannot land inside the window. *)
let test_product_alloc_bound () =
  List.iter
    (fun name ->
      let prms = Option.get (Pairing.by_name name) in
      let curve = prms.Pairing.curve in
      let g = prms.Pairing.g in
      let a = B.of_int 1234 and b = B.of_int 5678 in
      let ab = B.erem (B.mul a b) prms.Pairing.q in
      let pairs =
        [ (Pairing.Prepared (Pairing.prepare prms (Curve.mul curve a g)),
           Curve.mul curve b g);
          (Pairing.Prepared (Pairing.prepare prms (Curve.mul curve ab g)),
           Curve.neg curve g) ]
      in
      (* Warm the per-domain register file so growth is behind us. *)
      for _ = 1 to 3 do
        ignore (Pairing.check_product_one_mixed prms pairs)
      done;
      Gc.minor ();
      let rounds = 50 in
      let before = Gc.allocated_bytes () in
      for _ = 1 to rounds do
        ignore (Sys.opaque_identity (Pairing.check_product_one_mixed prms pairs))
      done;
      let words = (Gc.allocated_bytes () -. before) /. 8. in
      let per_op = words /. float_of_int rounds in
      if per_op > 64.0 then
        Alcotest.failf "check_product_one_mixed allocates %.1f words/op at %s"
          per_op name)
    Pairing.all_names

let test_param_search_small () =
  let rng = Hashing.Drbg.create ~seed:"param-search-test" () in
  let p, q = Param_search.generate ~rng ~qbits:32 ~pbits:48 () in
  Alcotest.(check bool) "p prime" true (Prime.is_probably_prime p);
  Alcotest.(check bool) "q prime" true (Prime.is_probably_prime q);
  Alcotest.(check bool) "q | p+1" true (B.is_zero (B.erem (B.succ p) q));
  Alcotest.check (Alcotest.testable B.pp B.equal) "p mod 4 = 3" (B.of_int 3)
    (B.erem p (B.of_int 4));
  (* And the whole pairing machinery works on fresh parameters. *)
  let fresh = Pairing.make ~name:"fresh" ~p ~q () in
  let gg = Pairing.pairing fresh fresh.Pairing.g fresh.Pairing.g in
  Alcotest.(check bool) "non-degenerate" false
    (Pairing.gt_equal gg (Pairing.gt_one fresh))

(* --- G1 membership: counters, the per-domain memo, fallback counters --- *)

let g1_ref prms p =
  Curve.on_curve prms.Pairing.curve p
  && Curve.is_infinity (Curve.mul prms.Pairing.curve prms.Pairing.q p)

let g1_counts () =
  let s = Pairing.stats () in
  (s.Pairing.g1_checks, s.Pairing.g1_memo_hits)

let degenerate () = (Pairing.stats ()).Pairing.degenerate_fallbacks

(* Moves of (checks, hits) across [f ()]. *)
let g1_delta f =
  let c0, h0 = g1_counts () in
  let v = f () in
  let c1, h1 = g1_counts () in
  (v, (c1 - c0, h1 - h0))

let delta = Alcotest.(pair int int)

(* A raw H1 lift: a curve point of unconstrained order, asserted against
   the reference to lie outside G1. *)
let off_subgroup prms label =
  let l = Pairing.hash_to_g1_unclamped prms label in
  if g1_ref prms l then Alcotest.fail "lift unexpectedly in G1";
  l

let test_g1_once_decode_verify () =
  List.iter
    (fun prms ->
      let rng = Hashing.Drbg.create ~seed:"g1-once" () in
      let srv_sec, srv_pub = Tre.Server.keygen prms rng in
      let vrf = Tre.Verifier.create prms srv_pub in
      let bytes = Tre.update_to_bytes prms (Tre.issue_update prms srv_sec "g1-once-T") in
      let ok, d =
        g1_delta (fun () ->
            match Tre.update_of_bytes prms bytes with
            | Ok u -> Tre.Verifier.verify_update prms vrf u
            | Error e -> Alcotest.fail e)
      in
      let name = prms.Pairing.name in
      Alcotest.(check bool) (name ^ ": honest update verifies") true ok;
      Alcotest.check delta (name ^ ": one check, one memo hit") (1, 1) d)
    [ Pairing.toy64 (); Pairing.toy64b () ]

let test_g1_rejects_not_cached () =
  let member = Pairing.hash_to_g1 prms "g1-member" in
  let lift = off_subgroup prms "g1-off" in
  let v, d = g1_delta (fun () -> Pairing.in_g1 prms member) in
  Alcotest.(check bool) "member accepted" true v;
  Alcotest.check delta "member: one full check" (1, 0) d;
  let v, d =
    g1_delta (fun () -> (Pairing.in_g1 prms lift, Pairing.in_g1 prms lift))
  in
  Alcotest.(check (pair bool bool)) "lift rejected twice" (false, false) v;
  Alcotest.check delta "rejects: two full checks, no hit" (2, 0) d;
  (* The rejections neither entered the memo nor evicted the member. *)
  let v, d = g1_delta (fun () -> Pairing.in_g1 prms member) in
  Alcotest.(check bool) "member still accepted" true v;
  Alcotest.check delta "member: memo hit" (0, 1) d

let test_g1_memo_holds_a_copy () =
  let fp = prms.Pairing.fp in
  let pt = Pairing.hash_to_g1 prms "g1-mutate" in
  Alcotest.(check bool) "member accepted" true (Pairing.in_g1 prms pt);
  match (pt, off_subgroup prms "g1-mutate-off") with
  | Curve.Affine { x; y }, Curve.Affine l ->
      (* Overwrite the checked point's own limb arrays with a point outside
         G1: a memo keyed on those arrays would still match. *)
      Fp.Mut.set fp x l.x;
      Fp.Mut.set fp y l.y;
      let v, d = g1_delta (fun () -> Pairing.in_g1 prms pt) in
      Alcotest.(check bool) "mutated point rejected" false v;
      Alcotest.check delta "mutated point: full check" (1, 0) d
  | _ -> Alcotest.fail "unexpected infinity"

let test_g1_memo_per_params () =
  (* One curve, two subgroups: p + 1 = 308 = 4 * 7 * 11. The point
     coordinates are the same field elements under both sets. *)
  let p = B.of_int 307 in
  let p7 = Pairing.make ~name:"p307-q7" ~p ~q:(B.of_int 7) () in
  let p11 = Pairing.make ~name:"p307-q11" ~p ~q:(B.of_int 11) () in
  let pt = Pairing.hash_to_g1 p7 "g1-params" in
  Alcotest.(check bool) "order-7 point in the q=7 G1" true (Pairing.in_g1 p7 pt);
  Alcotest.(check bool) "reference agrees (q=11)" false (g1_ref p11 pt);
  let v, d = g1_delta (fun () -> Pairing.in_g1 p11 pt) in
  Alcotest.(check bool) "not in the q=11 G1" false v;
  Alcotest.check delta "other params: full check, no hit" (1, 0) d

let test_g1_pool_agrees () =
  let pool = Pool.create ~domains:4 ~oversubscribe:true () in
  List.iter
    (fun prms ->
      let name = prms.Pairing.name in
      let pts =
        List.concat
          (List.init 6 (fun i ->
               let m = Pairing.hash_to_g1 prms (Printf.sprintf "pool-m-%d" i) in
               let l = Pairing.hash_to_g1_unclamped prms (Printf.sprintf "pool-l-%d" i) in
               (* repeats exercise the memo inside a chunk *)
               [ m; m; l; l; Curve.infinity; m; Curve.neg prms.Pairing.curve m ]))
      in
      let expected = List.map (g1_ref prms) pts in
      for round = 1 to 3 do
        Alcotest.(check (list bool))
          (Printf.sprintf "%s: pool in_g1 = reference (round %d)" name round)
          expected
          (Pool.map pool (Pairing.in_g1 prms) pts)
      done)
    [ Pairing.toy64 (); Pairing.toy64b () ];
  Pool.shutdown pool

let test_degenerate_counter () =
  (* toy64's cofactor has the factor 5, and q's NAF walk lands on the
     coincident-addition case for an order-5 first argument: each path
     that meets it counts exactly one fallback and still equals the
     reference. *)
  let lift = Pairing.hash_to_g1_unclamped prms "degenerate-order-5" in
  let p5 = Curve.mul curve (B.div (Curve.group_order curve) (B.of_int 5)) lift in
  Alcotest.(check bool) "order 5" true
    ((not (Curve.is_infinity p5)) && Curve.is_infinity (Curve.mul curve (B.of_int 5) p5));
  let qpt = Curve.mul curve (Pairing.random_scalar prms rng) g in
  let moves f =
    let before = degenerate () in
    let v = f () in
    (v, degenerate () - before)
  in
  let v, d = moves (fun () -> Pairing.pairing prms p5 qpt) in
  Alcotest.(check int) "single loop: one fallback" 1 d;
  Alcotest.check gt "single loop = ref" (Pairing.pairing_ref prms p5 qpt) v;
  let expected =
    Pairing.gt_equal
      (Pairing.gt_mul prms (Pairing.pairing_ref prms p5 qpt) (Pairing.pairing_ref prms g qpt))
      (Pairing.gt_one prms)
  in
  let v, d = moves (fun () -> Pairing.check_product_one prms [ (p5, qpt); (g, qpt) ]) in
  Alcotest.(check int) "product kernel: one eviction" 1 d;
  Alcotest.(check bool) "product decision = ref" expected v;
  let _, d = moves (fun () -> Pairing.prepare prms p5) in
  Alcotest.(check int) "prepare: one binary recording" 1 d;
  (* Honest traffic: keys, updates, encryption, verification (single,
     folded and batched) and decryption move nothing. *)
  let before = degenerate () in
  List.iter
    (fun prms ->
      let rng = Hashing.Drbg.create ~seed:"honest-degenerate" () in
      let srv_sec, srv_pub = Tre.Server.keygen prms rng in
      let usk, usr_pub = Tre.User.keygen prms srv_pub rng in
      let vrf = Tre.Verifier.create prms srv_pub in
      let enc = Tre.Encryptor.create prms srv_pub usr_pub in
      let upds = List.init 4 (fun i -> Tre.issue_update prms srv_sec (Printf.sprintf "h-%d" i)) in
      List.iter
        (fun u ->
          let t = u.Tre.update_time in
          assert (Tre.Verifier.verify_update prms vrf u);
          assert (Tre.verify_update prms srv_pub u);
          let ct = Tre.Encryptor.encrypt enc ~release_time:t rng "msg" in
          assert (Tre.decrypt prms usk u ct = "msg"))
        upds;
      assert (Tre.Verifier.verify_updates prms vrf upds))
    [ Pairing.toy64 (); Pairing.toy64b () ];
  Alcotest.(check int) "honest traffic: no fallback" 0 (degenerate () - before)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pairing"
    [
      ( "directed",
        [
          Alcotest.test_case "non-degenerate" `Quick test_non_degenerate;
          Alcotest.test_case "infinity" `Quick test_infinity_pairs_to_one;
          Alcotest.test_case "pairing product" `Quick test_pairing_product;
          Alcotest.test_case "ddh oracle" `Quick test_ddh_oracle;
          Alcotest.test_case "symmetric" `Quick test_pairing_symmetric;
          Alcotest.test_case "gt ops" `Quick test_gt_ops;
          Alcotest.test_case "h2" `Quick test_h2_properties;
        ] );
      ( "bilinearity",
        qc
          [
            prop_bilinear_left; prop_bilinear_right; prop_bilinear_full;
            prop_additive_in_first; prop_additive_in_second;
            prop_hashed_points_pair_consistently;
          ] );
      ( "parameters",
        [
          Alcotest.test_case "all sets valid" `Slow test_all_parameter_sets_valid;
          Alcotest.test_case "by_name unknown" `Quick test_by_name_unknown;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "param search" `Slow test_param_search_small;
        ] );
      ( "prepared",
        Alcotest.test_case "toy sets equivalence" `Quick test_prepared_toy_sets
        :: Alcotest.test_case "all sets equivalence" `Slow test_prepared_all_sets
        :: qc [ prop_prepared_random_points ] );
      ( "kernel-vs-ref",
        Alcotest.test_case "toy sets differential" `Quick test_kernel_vs_ref_toy
        :: Alcotest.test_case "all sets differential" `Slow
             test_kernel_vs_ref_all_sets
        :: qc [ prop_kernel_pairing_matches_ref ] );
      ( "product-vs-ref",
        Alcotest.test_case "toy sets differential" `Quick test_product_vs_ref_toy
        :: Alcotest.test_case "all sets differential" `Slow
             test_product_vs_ref_all_sets
        :: Alcotest.test_case "verify path alloc bound" `Slow
             test_product_alloc_bound
        :: qc [ prop_product_matches_ref ] );
      ( "family2",
        [
          Alcotest.test_case "bilinear+nondegenerate" `Quick test_family2_bilinear_nondegenerate;
          Alcotest.test_case "full TRE roundtrip" `Quick test_family2_full_tre_roundtrip;
          Alcotest.test_case "ddh + products" `Quick test_family2_ddh_and_products;
          Alcotest.test_case "make validation" `Quick test_family2_make_validation;
        ] );
      ( "g1-once",
        [
          Alcotest.test_case "decode then verify" `Quick test_g1_once_decode_verify;
          Alcotest.test_case "rejects not cached" `Quick test_g1_rejects_not_cached;
          Alcotest.test_case "memo holds a copy" `Quick test_g1_memo_holds_a_copy;
          Alcotest.test_case "memo per params" `Quick test_g1_memo_per_params;
          Alcotest.test_case "4-domain pool" `Quick test_g1_pool_agrees;
          Alcotest.test_case "degenerate counter" `Quick test_degenerate_counter;
        ] );
    ]
