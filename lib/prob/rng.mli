(** Deterministic, splittable pseudo-random number generation.

    The generator is xoshiro256** seeded through splitmix64, giving
    high-quality streams with a tiny state.  Every stochastic component
    of the code base takes an explicit [Rng.t] so that experiments are
    reproducible from a single integer seed. *)

type t

val create : int -> t
(** [create seed] builds a generator from any integer seed (including 0). *)

val split : t -> t
(** Derive an independent child stream; the parent advances. *)

val derive : int64 -> index:int -> t
(** [derive base ~index] is an independent stream addressed by the pair
    [(base, index)].  Pure in both arguments: unlike [split], it does
    not advance any parent state, so a family of streams indexed by
    sample number can be materialized in any order — or in parallel —
    with bit-identical results. *)

val seed_of : t -> int64
(** Draw a 64-bit base seed for [derive] (advances the generator). *)

val copy : t -> t
(** Duplicate the current state (the two copies then produce identical
    streams — useful in tests). *)

val uint64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1) with 53-bit resolution. *)

val uniform : t -> float -> float -> float
(** [uniform r a b] is uniform in [a, b). *)

val int : t -> int -> int
(** [int r n] is uniform in [0, n); requires [n > 0].  Uses rejection
    sampling, so it is exactly uniform. *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal via the polar (Marsaglia) method; caches the spare
    deviate. *)

val gaussian_vector : t -> int -> Cbmf_linalg.Vec.t
(** iid standard normal vector. *)

val shuffle_inplace : t -> 'a array -> unit
(** Fisher–Yates. *)

val permutation : t -> int -> int array
(** Random permutation of [0..n-1]. *)
