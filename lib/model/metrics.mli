(** Error metrics for model validation.

    The paper's "modeling error" is the relative L2 error on an
    independent testing set, pooled over all states:
    ‖ŷ − y‖₂ / ‖y‖₂ (reported in percent). *)

open Cbmf_linalg

val rmse : predicted:Vec.t -> actual:Vec.t -> float

val relative_rms : predicted:Vec.t -> actual:Vec.t -> float
(** ‖ŷ − y‖ / ‖y‖; raises on a zero-norm actual. *)

val relative_rms_pooled : (Vec.t * Vec.t) array -> float
(** [(predicted, actual)] pairs, one per state; pooled as
    sqrt(Σ‖ŷ_k−y_k‖²)/sqrt(Σ‖y_k‖²). *)

val percent : float -> float
(** ×100. *)

val r_squared : predicted:Vec.t -> actual:Vec.t -> float
(** Coefficient of determination. *)

(** {1 Support recovery (synthetic ground truth)} *)

val support_precision_recall :
  truth:int array -> estimate:int array -> float * float
(** [(precision, recall)] of an estimated support (set of column
    indices) against the true one.  Duplicate-free inputs assumed;
    an empty side scores 0 on its ratio. *)

val support_f1 : truth:int array -> estimate:int array -> float
(** Harmonic mean of precision and recall; 0 when both are empty. *)

val coeffs_rmse : truth:Mat.t -> estimate:Mat.t -> float
(** Entry-wise root-mean-square error between two coefficient matrices
    of identical shape — the recovery-accuracy metric a physical
    testbench can never provide. *)

(** {1 Multi-state model evaluation} *)

val coeffs_error_pooled :
  coeffs:Mat.t -> Dataset.t -> float
(** Pooled relative RMS of the per-state linear models given by rows of
    [coeffs] (K×M) against a dataset. *)

val predict_state : coeffs:Mat.t -> Dataset.t -> int -> Vec.t
(** ŷ_k = B_k · coeffs_k. *)
