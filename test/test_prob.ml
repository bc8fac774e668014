open Cbmf_prob
open Helpers

(* --- Rng --- *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_true "same stream" (Rng.uint64 a = Rng.uint64 b)
  done

let test_copy_stream () =
  let a = Rng.create 7 in
  let _ = Rng.uint64 a in
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check_true "copy equal" (Rng.float a = Rng.float b)
  done

let test_split_independent () =
  let a = Rng.create 9 in
  let child = Rng.split a in
  (* Different seeds give different streams with overwhelming probability. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.uint64 a = Rng.uint64 child then incr same
  done;
  check_true "split diverges" (!same = 0)

let test_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    check_true "in [0,1)" (x >= 0.0 && x < 1.0)
  done

let test_int_uniform () =
  let r = Rng.create 5 in
  let counts = Array.make 7 0 in
  let n = 70_000 in
  for _ = 1 to n do
    let k = Rng.int r 7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      (* Expected 10000; 5σ ≈ 480. *)
      check_true "uniform cell" (abs (c - 10_000) < 500))
    counts

let test_gaussian_moments () =
  let r = Rng.create 11 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r) in
  check_true "mean ~ 0" (abs_float (Stats.mean xs) < 0.01);
  check_true "var ~ 1" (abs_float (Stats.variance xs -. 1.0) < 0.02);
  check_true "skew ~ 0" (abs_float (Stats.skewness xs) < 0.05);
  check_true "kurtosis ~ 0" (abs_float (Stats.kurtosis_excess xs) < 0.1)

let test_shuffle_permutation () =
  let r = Rng.create 13 in
  let p = Rng.permutation r 50 in
  let seen = Array.make 50 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  check_true "is permutation" (Array.for_all Fun.id seen)

(* --- Gaussian distribution functions --- *)

let test_erf_values () =
  check_float ~tol:1e-6 "erf 0" 0.0 (Gaussian.erf 0.0);
  check_float ~tol:2e-7 "erf 1" 0.8427007929 (Gaussian.erf 1.0);
  check_float ~tol:2e-7 "erf -1" (-0.8427007929) (Gaussian.erf (-1.0));
  check_float ~tol:1e-6 "erf 3" 0.9999779095 (Gaussian.erf 3.0)

let test_cdf_values () =
  check_float ~tol:1e-7 "cdf 0" 0.5 (Gaussian.cdf 0.0);
  check_float ~tol:5e-6 "cdf 1.96" 0.9750021 (Gaussian.cdf 1.959964);
  check_float ~tol:5e-6 "cdf -1.96" 0.0249979 (Gaussian.cdf (-1.959964));
  check_float ~tol:1e-7 "mu/sigma shift" 0.5 (Gaussian.cdf ~mu:3.0 ~sigma:2.0 3.0)

let test_quantile_roundtrip () =
  List.iter
    (fun p ->
      check_float ~tol:1e-6 "cdf∘quantile" p (Gaussian.cdf (Gaussian.quantile p)))
    [ 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

let test_quantile_known () =
  check_float ~tol:2e-5 "q(0.975)" 1.959964 (Gaussian.quantile 0.975);
  check_float ~tol:1e-6 "q(0.5)" 0.0 (Gaussian.quantile 0.5);
  check_raises_invalid "q(0)" (fun () -> Gaussian.quantile 0.0)

let test_pdf () =
  check_float ~tol:1e-10 "pdf peak" (1.0 /. sqrt (2.0 *. Float.pi)) (Gaussian.pdf 0.0);
  check_float ~tol:1e-10 "log_pdf consistent" (log (Gaussian.pdf 1.3))
    (Gaussian.log_pdf 1.3);
  check_float ~tol:1e-12 "pdf scales with sigma"
    (Gaussian.pdf 0.5 /. 2.0)
    (Gaussian.pdf ~mu:1.0 ~sigma:2.0 2.0)

(* --- Lhs --- *)

let test_lhs_stratified () =
  let r = Rng.create 23 in
  let m = Lhs.uniform r ~n:16 ~dim:3 in
  (* Each column must hit every stratum exactly once. *)
  for j = 0 to 2 do
    let seen = Array.make 16 false in
    for i = 0 to 15 do
      let s = int_of_float (Cbmf_linalg.Mat.get m i j *. 16.0) in
      check_true "stratum bounds" (s >= 0 && s < 16);
      check_true "stratum unique" (not seen.(s));
      seen.(s) <- true
    done
  done

let test_lhs_gaussian_moments () =
  let r = Rng.create 29 in
  let m = Lhs.gaussian r ~n:2000 ~dim:2 in
  let col = Cbmf_linalg.Mat.col m 0 in
  check_true "lhs mean" (abs_float (Stats.mean col) < 0.05);
  check_true "lhs var" (abs_float (Stats.variance col -. 1.0) < 0.05)

(* --- Stats --- *)

let test_stats_basics () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean xs);
  check_float ~tol:1e-9 "variance" (32.0 /. 7.0) (Stats.variance xs);
  check_float "median" 4.5 (Stats.median xs);
  check_float "min" 2.0 (Stats.minimum xs);
  check_float "max" 9.0 (Stats.maximum xs)

let test_quantile_interp () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 4.0 (Stats.quantile xs 1.0);
  check_float ~tol:1e-12 "q0.5" 2.5 (Stats.quantile xs 0.5)

let test_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  check_float ~tol:1e-12 "perfect corr" 1.0 (Stats.pearson xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  check_float ~tol:1e-12 "anti corr" (-1.0) (Stats.pearson xs zs);
  check_float "const corr" 0.0 (Stats.pearson xs (Array.make 4 1.0))

let test_histogram () =
  let xs = [| 0.0; 0.1; 0.2; 0.9; 1.0 |] in
  let h = Stats.histogram ~bins:2 xs in
  check_int "bins" 2 (Array.length h);
  check_int "counts total" 5 (Array.fold_left (fun a (_, c) -> a + c) 0 h)

(* --- Kept-surface cases ---

   Each draws from its own seeded generator, so no shared stream
   shifts under the cases above. *)

let test_derive_pure () =
  let base = Rng.seed_of (Rng.create 31) in
  let a = Rng.derive base ~index:3 and b = Rng.derive base ~index:3 in
  for _ = 1 to 20 do
    check_true "same (base, index) = same stream" (Rng.uint64 a = Rng.uint64 b)
  done;
  let c = Rng.derive base ~index:4 and d = Rng.derive base ~index:3 in
  check_true "index changes the stream" (Rng.uint64 c <> Rng.uint64 d)

let test_uniform_bool () =
  let r = Rng.create 37 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    let x = Rng.uniform r (-2.0) 3.0 in
    check_true "uniform in [a, b)" (x >= -2.0 && x < 3.0);
    if Rng.bool r then incr trues
  done;
  (* Expected 5000; 5σ = 250. *)
  check_true "bool balanced" (abs (!trues - 5000) < 250)

let test_shuffle_inplace () =
  let r = Rng.create 41 in
  let xs = Array.init 30 (fun i -> i) in
  Rng.shuffle_inplace r xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  check_true "same elements" (sorted = Array.init 30 (fun i -> i));
  check_true "order changed" (xs <> Array.init 30 (fun i -> i))

let test_gaussian_vector () =
  let a = Rng.create 43 and b = Rng.create 43 in
  let v = Rng.gaussian_vector a 5 in
  check_int "dim" 5 (Array.length v);
  check_true "same draws as scalar calls"
    (v = Array.init 5 (fun _ -> Rng.gaussian b))

let test_erfc () =
  List.iter
    (fun x -> check_float ~tol:1e-12 "erfc = 1 − erf" (1.0 -. Gaussian.erf x) (Gaussian.erfc x))
    [ -2.0; -0.5; 0.0; 0.3; 1.0; 2.5 ]

let test_cdf_symmetry () =
  List.iter
    (fun x ->
      check_float ~tol:1e-7 "cdf(−x) = 1 − cdf(x)" (1.0 -. Gaussian.cdf x)
        (Gaussian.cdf (-.x)))
    [ 0.1; 0.7; 1.5; 2.8 ]

let test_lhs_uniform_range () =
  let m = Lhs.uniform (Rng.create 47) ~n:10 ~dim:4 in
  check_int "rows" 10 (fst (Cbmf_linalg.Mat.dim m));
  check_int "cols" 4 (snd (Cbmf_linalg.Mat.dim m));
  Array.iter (fun x -> check_true "in [0, 1)" (x >= 0.0 && x < 1.0)) m.Cbmf_linalg.Mat.data;
  let again = Lhs.uniform (Rng.create 47) ~n:10 ~dim:4 in
  check_true "deterministic per seed" (m.Cbmf_linalg.Mat.data = again.Cbmf_linalg.Mat.data)

let test_stats_spread () =
  let xs = [| 1.0; 3.0; 5.0; 7.0 |] in
  check_float ~tol:1e-12 "stddev² = variance" (Stats.variance xs)
    (Stats.stddev xs ** 2.0);
  check_float ~tol:1e-12 "covariance with self = variance" (Stats.variance xs)
    (Stats.covariance xs xs);
  check_float "singleton variance" 0.0 (Stats.variance [| 4.0 |])

let test_stats_shape () =
  let sym = [| -2.0; -1.0; 0.0; 1.0; 2.0 |] in
  check_float ~tol:1e-12 "symmetric skew 0" 0.0 (Stats.skewness sym);
  check_true "right tail skews positive"
    (Stats.skewness [| 0.0; 0.0; 0.0; 0.0; 10.0 |] > 0.0);
  (* Two-point ±1 distribution: 4th moment 1, variance 1 → excess −2. *)
  check_float ~tol:1e-12 "two-point excess kurtosis" (-2.0)
    (Stats.kurtosis_excess [| -1.0; 1.0; -1.0; 1.0 |])

let test_stats_order () =
  let xs = [| 9.0; 1.0; 5.0 |] in
  let before = Array.copy xs in
  check_float "odd median" 5.0 (Stats.median xs);
  check_float ~tol:1e-12 "q0.25" 3.0 (Stats.quantile xs 0.25);
  check_true "input unchanged" (xs = before);
  check_true "summary"
    (Stats.summary xs = "n=3 mean=5 sd=4 min=1 med=5 max=9")

let suite =
  [ ( "prob.rng",
      [ case "determinism" test_determinism;
        case "copy" test_copy_stream;
        case "split" test_split_independent;
        case "float range" test_float_range;
        slow_case "int uniformity" test_int_uniform;
        slow_case "gaussian moments" test_gaussian_moments;
        case "permutation" test_shuffle_permutation;
        case "derive is pure" test_derive_pure;
        case "uniform/bool" test_uniform_bool;
        case "shuffle_inplace" test_shuffle_inplace;
        case "gaussian_vector" test_gaussian_vector ] );
    ( "prob.gaussian",
      [ case "erf values" test_erf_values;
        case "cdf values" test_cdf_values;
        case "quantile roundtrip" test_quantile_roundtrip;
        case "quantile known values" test_quantile_known;
        case "pdf" test_pdf;
        case "erfc" test_erfc;
        case "cdf symmetry" test_cdf_symmetry ] );
    ( "prob.lhs",
      [ case "stratification" test_lhs_stratified;
        case "gaussian moments" test_lhs_gaussian_moments;
        case "uniform range and determinism" test_lhs_uniform_range ] );
    ( "prob.stats",
      [ case "basics" test_stats_basics;
        case "quantile interpolation" test_quantile_interp;
        case "pearson" test_pearson;
        case "histogram" test_histogram;
        case "spread" test_stats_spread;
        case "shape moments" test_stats_shape;
        case "order statistics" test_stats_order ] ) ]
