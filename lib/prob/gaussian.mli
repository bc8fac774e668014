(** Scalar Gaussian distribution functions: density, CDF, quantile and
    the error-function family they are built on. *)

val erf : float -> float
(** Error function, |error| < 5e-6 (Numerical-Recipes-style
    Chebyshev fit refined by one Newton step where it matters). *)

val erfc : float -> float

val pdf : ?mu:float -> ?sigma:float -> float -> float

val log_pdf : ?mu:float -> ?sigma:float -> float -> float

val cdf : ?mu:float -> ?sigma:float -> float -> float

val quantile : float -> float
(** Inverse standard normal CDF (Acklam's rational approximation with a
    Halley refinement step; |error| < 1e-5 over (0, 1)).
    Raises [Invalid_argument] outside (0, 1). *)
