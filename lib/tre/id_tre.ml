type identity = string
type time = string

exception Update_mismatch

module Server = struct
  type secret = { s : Bigint.t; gen : Curve.point }
  type public = { g : Curve.point; sg : Curve.point }

  let keygen ?g prms rng =
    let gen = match g with Some g -> g | None -> prms.Pairing.g in
    if Curve.is_infinity gen || not (Pairing.in_g1 prms gen) then
      invalid_arg "Id_tre.Server: generator must be a non-identity G1 point";
    let s = Pairing.random_scalar prms rng in
    ({ s; gen }, { g = gen; sg = Curve.mul prms.Pairing.curve s gen })

  let extract prms sec id =
    Curve.mul prms.Pairing.curve sec.s (Pairing.hash_to_g1 prms id)

  let issue_update prms sec t =
    { Tre.update_time = t;
      update_value = Curve.mul prms.Pairing.curve sec.s (Pairing.hash_to_g1 prms t) }
end

let verify_update prms (pub : Server.public) upd =
  Pairing.in_g1 prms upd.Tre.update_value
  && Pairing.pairing_equal_check prms
       ~lhs:(pub.Server.sg, Pairing.hash_to_g1 prms upd.Tre.update_time)
       ~rhs:(pub.Server.g, upd.Tre.update_value)

let verify_private_key prms (pub : Server.public) id d =
  Pairing.in_g1 prms d
  && Pairing.pairing_equal_check prms ~lhs:(pub.Server.g, d)
       ~rhs:(pub.Server.sg, Pairing.hash_to_g1 prms id)

type ciphertext = { u : Curve.point; v : string; release_time : time }

let session_key prms (srv_sg : Curve.point) ~id ~release_time ~r =
  let curve = prms.Pairing.curve in
  let ke =
    Curve.add curve (Pairing.hash_to_g1 prms id) (Pairing.hash_to_g1 prms release_time)
  in
  Pairing.pairing prms (Curve.mul curve r srv_sg) ke

let encrypt prms (srv : Server.public) id ~release_time rng msg =
  let r = Pairing.random_scalar prms rng in
  let k = session_key prms srv.Server.sg ~id ~release_time ~r in
  {
    u = Curve.mul prms.Pairing.curve r srv.Server.g;
    v = Hashing.Kdf.xor msg (Pairing.h2 prms k (String.length msg));
    release_time;
  }

(* Sender-side precomputation: K = e^(r*sG, K_E) = e^(sG, K_E)^r, with sG
   fixed — so prepare sG once and cache the pairing per (id, T); repeated
   encryptions to the same recipient and release time pairing-free, and
   even cache misses skip the Miller loop's point arithmetic. The cache
   is bounded like [Tre.Encryptor]'s (FIFO). Outputs are bit-identical
   to {!encrypt} on the same rng stream. *)
module Encryptor = struct
  type t = {
    prms : Pairing.params;
    g_table : Curve.Table.t;
    sg_prep : Pairing.prepared;
    cache : (identity * time, Fp2.t) Fifo_cache.t;
  }

  let create prms (srv : Server.public) =
    {
      prms;
      g_table =
        Curve.Table.create prms.Pairing.curve
          ~bits:(Bigint.bit_length prms.Pairing.q)
          srv.Server.g;
      sg_prep = Pairing.prepare prms srv.Server.sg;
      cache = Fifo_cache.create Tre.Encryptor.cache_capacity;
    }

  let session_base enc ~id ~release_time =
    Fifo_cache.find_or_add enc.cache (id, release_time) (fun (id, release_time) ->
        Pairing.pairing_prepared enc.prms enc.sg_prep
          (Curve.add enc.prms.Pairing.curve
             (Pairing.hash_to_g1 enc.prms id)
             (Pairing.hash_to_g1 enc.prms release_time)))

  let cached enc = Fifo_cache.length enc.cache

  let encrypt enc id ~release_time rng msg =
    let r = Pairing.random_scalar enc.prms rng in
    let k = Pairing.gt_pow enc.prms (session_base enc ~id ~release_time) r in
    {
      u = Curve.Table.mul enc.g_table r;
      v = Hashing.Kdf.xor msg (Pairing.h2 enc.prms k (String.length msg));
      release_time;
    }
end

let decrypt prms ~private_key upd ct =
  if upd.Tre.update_time <> ct.release_time then raise Update_mismatch;
  let kd = Curve.add prms.Pairing.curve private_key upd.Tre.update_value in
  let k = Pairing.pairing prms ct.u kd in
  Hashing.Kdf.xor ct.v (Pairing.h2 prms k (String.length ct.v))

(* Same sharding story as {!Tre.decrypt_batch}: each pair is one pairing
   over immutable inputs, output order is positional, so the pool path is
   bit-identical to the serial one. *)
let decrypt_batch ?pool prms ~private_key pairs =
  let one (upd, ct) = decrypt prms ~private_key upd ct in
  match pool with
  | None -> List.map one pairs
  | Some pool -> Pool.map pool one pairs

let escrow_decrypt prms (sec : Server.secret) id ct =
  (* The server derives the user's private key and the update by itself —
     inherent key escrow of identity-based schemes. *)
  let d = Server.extract prms sec id in
  let upd = Server.issue_update prms sec ct.release_time in
  let kd = Curve.add prms.Pairing.curve d upd.Tre.update_value in
  let k = Pairing.pairing prms ct.u kd in
  Hashing.Kdf.xor ct.v (Pairing.h2 prms k (String.length ct.v))

let ciphertext_to_bytes prms ct =
  Codec.encode prms Codec.Ciphertext_id (fun buf ->
      Codec.add_label buf ct.release_time;
      Codec.add_point prms buf ct.u;
      Codec.add_var buf ct.v)

let ciphertext_of_bytes prms s =
  Codec.decode prms Codec.Ciphertext_id s (fun r ->
      let release_time = Codec.read_label ~what:"release time" r in
      let u = Codec.read_g1 ~what:"U" prms r in
      let v = Codec.read_var ~what:"V" r in
      { u; v; release_time })

let ciphertext_overhead prms = Codec.header_bytes + 8 + Pairing.point_bytes prms
