let sqrt2 = sqrt 2.0

let sqrt_2pi = sqrt (2.0 *. Float.pi)

(* Chebyshev-fit erfc (Numerical Recipes erfcc), accurate to ~1.2e-7. *)
let erfc_raw x =
  let z = abs_float x in
  let t = 1.0 /. (1.0 +. (0.5 *. z)) in
  (* Horner evaluation of the Chebyshev fit. *)
  let coeffs =
    [| 0.17087277; -0.82215223; 1.48851587; -1.13520398; 0.27886807;
       -0.18628806; 0.09678418; 0.37409196; 1.00002368; -1.26551223 |]
  in
  let poly = Array.fold_left (fun acc c -> (acc *. t) +. c) 0.0 coeffs in
  let ans = t *. exp ((-.z *. z) +. poly) in
  if x >= 0.0 then ans else 2.0 -. ans

let erfc = erfc_raw

let erf x = 1.0 -. erfc_raw x

let pdf ?(mu = 0.0) ?(sigma = 1.0) x =
  assert (sigma > 0.0);
  let z = (x -. mu) /. sigma in
  exp (-0.5 *. z *. z) /. (sigma *. sqrt_2pi)

let log_pdf ?(mu = 0.0) ?(sigma = 1.0) x =
  assert (sigma > 0.0);
  let z = (x -. mu) /. sigma in
  (-0.5 *. z *. z) -. log (sigma *. sqrt_2pi)

let cdf ?(mu = 0.0) ?(sigma = 1.0) x =
  assert (sigma > 0.0);
  0.5 *. erfc ((mu -. x) /. (sigma *. sqrt2))

(* Acklam's inverse-normal rational approximation + one Halley step. *)
let quantile p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Gaussian.quantile: p must be in (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2.0 *. log p) in
      ((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
       *. q
      +. c.(5))
      /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
    else if p <= 1.0 -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
       *. r
      +. a.(5))
      *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
          *. r
         +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.(((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q
          +. c.(4))
         *. q
        +. c.(5))
        /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))
    end
  in
  (* One Halley refinement using the (accurate enough) cdf/pdf pair. *)
  let e = cdf x -. p in
  let u = e *. sqrt_2pi *. exp (0.5 *. x *. x) in
  x -. (u /. (1.0 +. (0.5 *. x *. u)))
