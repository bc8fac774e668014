open Cbmf_linalg
open Helpers

let test_reconstruct () =
  let a = random_spd 6 in
  let f = Chol.factorize a in
  let l = Chol.lower f in
  mat_close ~tol:1e-9 "l·lᵀ = a" a (Mat.matmul_nt l l)

let test_solve () =
  let a = random_spd 8 in
  let x = random_vec 8 in
  let b = Mat.mat_vec a x in
  let f = Chol.factorize a in
  vec_close ~tol:1e-7 "solve" x (Chol.solve_vec f b)

let test_solve_mat () =
  let a = random_spd 5 in
  let f = Chol.factorize a in
  let x = random_mat 5 3 in
  let b = Mat.matmul a x in
  mat_close ~tol:1e-7 "solve_mat" x (Chol.solve_mat f b)

let test_solve_lower_mat () =
  (* Sizes straddle the 32-column panel width. *)
  List.iter
    (fun (n, nc) ->
      let a = random_spd n in
      let f = Chol.factorize a in
      let b = random_mat n nc in
      let x = Chol.solve_lower_mat f b in
      let l = Chol.lower f in
      mat_close ~tol:1e-7
        (Printf.sprintf "l·x = b (%dx%d)" n nc)
        b (Mat.matmul l x);
      (* Column-wise reference. *)
      for j = 0 to nc - 1 do
        vec_close ~tol:1e-9
          (Printf.sprintf "col %d = solve_lower" j)
          (Chol.solve_lower f (Mat.col b j))
          (Mat.col x j)
      done)
    [ (6, 3); (9, 33); (5, 64) ]

let test_solve_lower_mat_sparse_rhs () =
  (* Leading zero rows (a stacked block-diagonal RHS) must give the
     exact column-wise solution — the panel skip starts mid-matrix. *)
  let n = 8 in
  let a = random_spd n in
  let f = Chol.factorize a in
  let b = Mat.init n 4 (fun i j -> if i >= 5 then float_of_int (i + j) else 0.0) in
  let x = Chol.solve_lower_mat f b in
  for j = 0 to 3 do
    vec_close ~tol:1e-9 "sparse rhs col"
      (Chol.solve_lower f (Mat.col b j))
      (Mat.col x j)
  done;
  (* Rows above the first nonzero stay exactly zero. *)
  for i = 0 to 4 do
    for j = 0 to 3 do
      check_float "leading zero rows" 0.0 (Mat.get x i j)
    done
  done

let test_lower_inverse_t () =
  let a = random_spd 7 in
  let f = Chol.factorize a in
  let linv_t = Chol.lower_inverse_t f in
  let l = Chol.lower f in
  (* Rows of linv_t are the columns of l⁻¹: l·(linv_t)ᵀ = I. *)
  mat_close ~tol:1e-8 "l·(linv_t)ᵀ = I" (Mat.identity 7)
    (Mat.matmul_nt l linv_t);
  (* a⁻¹ = (linv_t)·(linv_t)ᵀ, and ‖linv_t‖_F² = Tr(a⁻¹). *)
  mat_close ~tol:1e-8 "linv_t·linv_tᵀ = a⁻¹" (Chol.inverse f)
    (Mat.syrk_nt linv_t);
  check_float ~tol:1e-8 "frobenius² = trace_inverse" (Chol.trace_inverse f)
    (Mat.frobenius linv_t ** 2.0)

let test_inverse () =
  let a = random_spd 5 in
  let inv = Chol.inverse (Chol.factorize a) in
  mat_close ~tol:1e-8 "a·a⁻¹ = I" (Mat.identity 5) (Mat.matmul a inv);
  check_true "inverse symmetric" (Mat.is_symmetric ~tol:1e-8 inv)

let test_logdet () =
  let d = Mat.diag (Vec.of_list [ 2.0; 3.0; 4.0 ]) in
  check_float ~tol:1e-10 "logdet diag" (log 24.0) (Chol.log_det (Chol.factorize d));
  check_float ~tol:1e-8 "det diag" 24.0 (Chol.det (Chol.factorize d))

let test_quad_inv () =
  let a = random_spd 6 in
  let f = Chol.factorize a in
  let b = random_vec 6 in
  check_float ~tol:1e-8 "quad_inv = bᵀa⁻¹b"
    (Vec.dot b (Chol.solve_vec f b))
    (Chol.quad_inv f b)

let test_trace_inverse () =
  let a = random_spd 7 in
  let f = Chol.factorize a in
  check_float ~tol:1e-8 "trace_inverse"
    (Mat.trace (Chol.inverse f))
    (Chol.trace_inverse f)

let test_not_pd () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  (match Chol.factorize a with
  | _ -> Alcotest.fail "expected Not_positive_definite"
  | exception Chol.Not_positive_definite _ -> ());
  check_true "is_positive_definite false" (not (Chol.is_positive_definite a));
  check_true "retry repairs"
    (let _ = Chol.factorize_with_retry (Mat.scalar 3 1e-18) in
     true)

let test_rank1_update () =
  let a = random_spd 6 in
  let v = random_vec 6 in
  let f = Chol.factorize a in
  Chol.rank1_update f (Vec.copy v);
  let updated = Mat.copy a in
  Mat.add_outer_inplace updated 1.0 v v;
  mat_close ~tol:1e-8 "cholupdate"
    updated
    (let l = Chol.lower f in
     Mat.matmul_nt l l)

let test_rank1_sequence () =
  (* Build a + Σ v_i v_iᵀ by repeated updates; compare against direct. *)
  let n = 5 in
  let a = Mat.scalar n 0.5 in
  let f = Chol.of_scaled_identity n 0.5 in
  let acc = Mat.copy a in
  for _ = 1 to 8 do
    let v = random_vec n in
    Mat.add_outer_inplace acc 1.0 v v;
    Chol.rank1_update f v
  done;
  let direct = Chol.factorize acc in
  check_float ~tol:1e-7 "logdet after updates" (Chol.log_det direct) (Chol.log_det f);
  let b = random_vec n in
  vec_close ~tol:1e-7 "solve after updates" (Chol.solve_vec direct b)
    (Chol.solve_vec f b)

let test_copy_independent () =
  let f = Chol.factorize (random_spd 4) in
  let g = Chol.copy f in
  Chol.rank1_update g (random_vec 4);
  (* The original must be unchanged: logdet of copy differs. *)
  check_true "copy independent" (Chol.log_det f < Chol.log_det g)

let test_nearest_pd () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Chol.nearest_pd_inplace a;
  check_true "repaired PD" (Chol.is_positive_definite a)

let test_sample_transform () =
  let a = random_spd 4 in
  let f = Chol.factorize a in
  let z = random_vec 4 in
  vec_close ~tol:1e-10 "l·z" (Mat.mat_vec (Chol.lower f) z) (Chol.sample_transform f z)

let prop_solve_residual =
  qcase ~count:40 "‖a·solve(b) − b‖ small"
    QCheck2.Gen.(int_range 1 10)
    (fun n ->
      let a = random_spd n in
      let b = random_vec n in
      let x = Chol.solve_vec (Chol.factorize a) b in
      Vec.dist (Mat.mat_vec a x) b <= 1e-6 *. Float.max 1.0 (Vec.norm2 b))

let prop_logdet_scaling =
  qcase ~count:40 "logdet(c·a) = n·log c + logdet a"
    QCheck2.Gen.(pair (int_range 1 8) (float_range 0.5 4.0))
    (fun (n, c) ->
      let a = random_spd n in
      let ld = Chol.log_det (Chol.factorize a) in
      let ldc = Chol.log_det (Chol.factorize (Mat.scale c a)) in
      abs_float (ldc -. (ld +. (float_of_int n *. log c))) <= 1e-7)

(* The cases below draw from their own seeded stream, so the shared
   [Helpers] stream (and every later suite's inputs) stays as it was. *)
let local_rng = Cbmf_prob.Rng.create 1303

let local_spd n = Seeded.random_spd local_rng n

let local_vec n = Seeded.random_vec local_rng n

let test_dim_no_jitter () =
  let f = Chol.factorize (local_spd 5) in
  check_int "dim" 5 (Chol.dim f);
  check_float "no jitter" 0.0 (Chol.jitter f);
  let g = Chol.factorize_with_retry (local_spd 4) in
  check_float "retry not needed" 0.0 (Chol.jitter g)

let test_explicit_jitter () =
  let a = local_spd 4 in
  let f = Chol.factorize ~jitter:0.5 a in
  let l = Chol.lower f in
  let shifted = Mat.copy a in
  Mat.add_diag_inplace shifted 0.5;
  mat_close ~tol:1e-9 "l·lᵀ = a + 0.5·I" shifted (Mat.matmul_nt l l)

let test_retry_records_jitter () =
  (* v·vᵀ is singular PSD: the plain factorization fails and the retry
     succeeds on a + jitter·I, with the jitter recorded. *)
  let v = Vec.of_list [ 1.0; 2.0; -1.0 ] in
  let a = Mat.outer v v in
  let f = Chol.factorize_with_retry a in
  let j = Chol.jitter f in
  check_true "jitter applied" (j > 0.0);
  check_true "jitter within cap" (j <= 1e-2 *. 2.0);
  let shifted = Mat.copy a in
  Mat.add_diag_inplace shifted j;
  let l = Chol.lower f in
  mat_close ~tol:1e-9 "l·lᵀ = a + jitter·I" shifted (Mat.matmul_nt l l)

let test_solve_lower_whitening () =
  let a = local_spd 6 in
  let f = Chol.factorize a in
  let b = local_vec 6 in
  let z = Chol.solve_lower f b in
  vec_close ~tol:1e-10 "l·z = b" b (Mat.mat_vec (Chol.lower f) z);
  check_float ~tol:1e-9 "zᵀz = bᵀa⁻¹b" (Chol.quad_inv f b) (Vec.dot z z)

let test_solve_lower_mat_inplace () =
  let f = Chol.factorize (local_spd 7) in
  let b = Seeded.random_mat local_rng 7 5 in
  let expected = Chol.solve_lower_mat f b in
  Chol.solve_lower_mat_inplace f b;
  mat_close ~tol:1e-12 "inplace = allocating" expected b

let test_of_scaled_identity () =
  let f = Chol.of_scaled_identity 4 2.25 in
  mat_close ~tol:1e-12 "l = 1.5·I" (Mat.scalar 4 1.5) (Chol.lower f);
  check_float ~tol:1e-12 "logdet = n·log c" (4.0 *. log 2.25) (Chol.log_det f);
  vec_close ~tol:1e-12 "solve = b / c"
    (Vec.of_list [ 1.0; 2.0; 3.0; 4.0 ])
    (Chol.solve_vec f (Vec.of_list [ 2.25; 4.5; 6.75; 9.0 ]))

let test_sample_moments () =
  (* iid standard normals through l reproduce the covariance a. *)
  let a = Mat.of_arrays [| [| 2.0; 0.8 |]; [| 0.8; 1.0 |] |] in
  let f = Chol.factorize a in
  let r = Cbmf_prob.Rng.create 17 in
  let n = 50_000 in
  let draws =
    Array.init n (fun _ -> Chol.sample_transform f (Cbmf_prob.Rng.gaussian_vector r 2))
  in
  let col j = Array.map (fun d -> d.(j)) draws in
  let open Cbmf_prob in
  check_true "mean0" (abs_float (Stats.mean (col 0)) < 0.05);
  check_true "mean1" (abs_float (Stats.mean (col 1)) < 0.05);
  check_true "var0" (abs_float (Stats.variance (col 0) -. 2.0) < 0.1);
  check_true "var1" (abs_float (Stats.variance (col 1) -. 1.0) < 0.05);
  check_true "cov01" (abs_float (Stats.covariance (col 0) (col 1) -. 0.8) < 0.05)

let suite =
  [ ( "linalg.chol",
      [ case "reconstruct" test_reconstruct;
        case "solve" test_solve;
        case "solve_mat" test_solve_mat;
        case "solve_lower_mat" test_solve_lower_mat;
        case "solve_lower_mat sparse rhs" test_solve_lower_mat_sparse_rhs;
        case "inverse" test_inverse;
        case "lower_inverse_t" test_lower_inverse_t;
        case "logdet/det" test_logdet;
        case "quad_inv" test_quad_inv;
        case "trace_inverse" test_trace_inverse;
        case "non-PD detection" test_not_pd;
        case "rank1 update" test_rank1_update;
        case "rank1 sequence" test_rank1_sequence;
        case "copy independence" test_copy_independent;
        case "nearest_pd repair" test_nearest_pd;
        case "sample_transform" test_sample_transform;
        prop_solve_residual;
        prop_logdet_scaling;
        case "dim, no jitter on SPD" test_dim_no_jitter;
        case "explicit jitter" test_explicit_jitter;
        case "retry records its jitter" test_retry_records_jitter;
        case "solve_lower whitening" test_solve_lower_whitening;
        case "solve_lower_mat_inplace" test_solve_lower_mat_inplace;
        case "of_scaled_identity" test_of_scaled_identity;
        slow_case "sample_transform moments" test_sample_moments ] ) ]
