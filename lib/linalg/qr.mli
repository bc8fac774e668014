(** Householder QR factorization and least-squares solves.

    For an m×n matrix with m ≥ n, [a = q r] with orthonormal [q]
    (m×n, thin) and upper-triangular [r] (n×n).  Least squares via QR is
    the numerically preferred path for the OMP/S-OMP baselines. *)

type t

exception Rank_deficient of int
(** Raised with the failing column index when a diagonal of [r] is
    (numerically) zero. *)

val factorize : Mat.t -> t
(** Requires [rows >= cols]. *)

val q : t -> Mat.t
(** Thin orthonormal factor (m×n), materialized. *)

val r : t -> Mat.t
(** Upper-triangular factor (n×n). *)

val solve_least_squares : t -> Vec.t -> Vec.t
(** [solve_least_squares f b] minimizes [‖a x − b‖₂]; raises
    {!Rank_deficient} when [a] lacks full column rank. *)

val lstsq : Mat.t -> Vec.t -> Vec.t
(** One-shot least-squares solve. *)
