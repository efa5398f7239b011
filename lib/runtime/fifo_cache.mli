(** A bounded memo table with first-in, first-out eviction: once full,
    each new key evicts the oldest one. For long-lived contexts that
    cache one value per key drawn from an open-ended set (release times,
    identities), where an unbounded table is a memory leak. Single-domain,
    like the contexts that own it. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity]. Raises [Invalid_argument] if [capacity < 1]. *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** The cached value for the key, or [compute key], stored (evicting the
    oldest entry if the table is full) and returned. Nothing is stored
    when [compute] raises. *)

val length : ('k, 'v) t -> int
(** Entries held; never more than the capacity. *)
