open Cbmf_linalg
open Helpers

let test_identity () =
  let i3 = Mat.identity 3 in
  check_float "trace" 3.0 (Mat.trace i3);
  check_true "symmetric" (Mat.is_symmetric i3);
  let a = random_mat 3 3 in
  mat_close "I·a = a" a (Mat.matmul i3 a);
  mat_close "a·I = a" a (Mat.matmul a i3)

let test_transpose () =
  let a = random_mat 3 5 in
  let at = Mat.transpose a in
  check_int "rows" 5 (fst (Mat.dim at));
  mat_close "involution" a (Mat.transpose at)

let test_matmul_assoc () =
  let a = random_mat 4 3 and b = random_mat 3 5 and c = random_mat 5 2 in
  mat_close ~tol:1e-10 "(ab)c = a(bc)"
    (Mat.matmul (Mat.matmul a b) c)
    (Mat.matmul a (Mat.matmul b c))

let test_matmul_variants () =
  let a = random_mat 4 3 and b = random_mat 5 3 in
  mat_close "matmul_nt = a·bᵀ" (Mat.matmul a (Mat.transpose b)) (Mat.matmul_nt a b);
  let c = random_mat 4 5 in
  mat_close "matmul_tn = aᵀ·c" (Mat.matmul (Mat.transpose a) c) (Mat.matmul_tn a c)

let test_mat_vec () =
  let a = random_mat 4 3 in
  let x = random_vec 3 in
  let expected = Array.init 4 (fun i -> Vec.dot (Mat.row a i) x) in
  vec_close "mat_vec" expected (Mat.mat_vec a x);
  let y = random_vec 4 in
  vec_close "mat_tvec" (Mat.mat_vec (Mat.transpose a) y) (Mat.mat_tvec a y)

let test_gram () =
  let a = random_mat 6 3 in
  let g = Mat.gram a in
  check_true "gram symmetric" (Mat.is_symmetric ~tol:1e-10 g);
  mat_close "gram = aᵀa" (Mat.matmul (Mat.transpose a) a) g

let test_rows_cols () =
  let a = Mat.init 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  vec_close "row" (Vec.of_list [ 10.0; 11.0; 12.0; 13.0 ]) (Mat.row a 1);
  vec_close "col" (Vec.of_list [ 2.0; 12.0; 22.0 ]) (Mat.col a 2);
  Mat.set_row a 0 (Vec.of_list [ 1.0; 1.0; 1.0; 1.0 ]);
  check_float "set_row" 1.0 (Mat.get a 0 3);
  Mat.set_col a 1 (Vec.of_list [ 5.0; 5.0; 5.0 ]);
  check_float "set_col" 5.0 (Mat.get a 2 1)

let test_submatrix_select () =
  let a = Mat.init 4 4 (fun i j -> float_of_int ((10 * i) + j)) in
  let s = Mat.submatrix a ~row0:1 ~col0:2 ~rows:2 ~cols:2 in
  check_float "sub[0,0]" 12.0 (Mat.get s 0 0);
  check_float "sub[1,1]" 23.0 (Mat.get s 1 1);
  let c = Mat.select_cols a [| 3; 0 |] in
  check_float "select[0,0]" 3.0 (Mat.get c 0 0);
  check_float "select[2,1]" 20.0 (Mat.get c 2 1)

let test_outer_quadratic () =
  let x = Vec.of_list [ 1.0; 2.0 ] and y = Vec.of_list [ 3.0; 4.0; 5.0 ] in
  let o = Mat.outer x y in
  check_float "outer" 8.0 (Mat.get o 1 1);
  let a = random_spd 4 in
  let v = random_vec 4 in
  check_float ~tol:1e-10 "quadratic_form"
    (Vec.dot v (Mat.mat_vec a v))
    (Mat.quadratic_form a v)

let test_add_outer_inplace () =
  let a = Mat.create 2 2 in
  let x = Vec.of_list [ 1.0; 2.0 ] in
  Mat.add_outer_inplace a 2.0 x x;
  check_float "outer inplace" 8.0 (Mat.get a 1 1);
  check_float "outer inplace off-diag" 4.0 (Mat.get a 0 1)

let test_diag_trace () =
  let d = Mat.diag (Vec.of_list [ 1.0; 2.0; 3.0 ]) in
  check_float "trace" 6.0 (Mat.trace d);
  vec_close "diagonal" (Vec.of_list [ 1.0; 2.0; 3.0 ]) (Mat.diagonal d);
  Mat.add_diag_inplace d 1.0;
  check_float "add_diag" 2.0 (Mat.get d 0 0)

let test_symmetrize () =
  let a = Mat.of_arrays [| [| 1.0; 4.0 |]; [| 2.0; 1.0 |] |] in
  Mat.symmetrize_inplace a;
  check_float "sym" 3.0 (Mat.get a 0 1);
  check_true "is_symmetric" (Mat.is_symmetric a)

let test_norms () =
  let a = Mat.of_arrays [| [| 1.0; -2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "norm_inf" 7.0 (Mat.norm_inf a);
  check_float "max_abs" 4.0 (Mat.max_abs a);
  check_float ~tol:1e-10 "frobenius" (sqrt 30.0) (Mat.frobenius a)

let prop_transpose_matmul =
  qcase ~count:50 "(ab)ᵀ = bᵀaᵀ"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 8))
    (fun (r, c) ->
      let a = random_mat r c and b = random_mat c r in
      Mat.approx_equal ~tol:1e-9
        (Mat.transpose (Mat.matmul a b))
        (Mat.matmul (Mat.transpose b) (Mat.transpose a)))

let prop_trace_cyclic =
  qcase ~count:50 "Tr(ab) = Tr(ba)"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 8))
    (fun (r, c) ->
      let a = random_mat r c and b = random_mat c r in
      abs_float (Mat.trace (Mat.matmul a b) -. Mat.trace (Mat.matmul b a))
      <= 1e-8)

(* The blocked kernels must agree with the naive triple loops on
   shapes that exercise every tile/unroll remainder (sizes around the
   4× k-unroll, the 2×2 register block, and odd dimensions). *)
let test_blocked_vs_naive () =
  List.iter
    (fun (m, p, n) ->
      let a = random_mat m p and b = random_mat p n in
      mat_close ~tol:1e-10
        (Printf.sprintf "matmul blocked = naive (%dx%dx%d)" m p n)
        (Mat.matmul_naive a b) (Mat.matmul a b);
      let bt = random_mat n p in
      mat_close ~tol:1e-10
        (Printf.sprintf "matmul_nt blocked = naive (%dx%dx%d)" m p n)
        (Mat.matmul_nt_naive a bt) (Mat.matmul_nt a bt);
      let c = random_mat m n in
      mat_close ~tol:1e-10
        (Printf.sprintf "matmul_tn blocked = naive (%dx%dx%d)" m p n)
        (Mat.matmul_naive (Mat.transpose a) c)
        (Mat.matmul_tn a c))
    [ (1, 1, 1); (2, 3, 2); (3, 5, 7); (5, 4, 1); (8, 8, 8); (9, 13, 11);
      (1, 9, 6); (17, 66, 5) ]

(* The packed-parallel GEMM paths must be bit-identical to the
   sequential blocked kernels at any domain count — the shapes are
   sized to clear the fan-out thresholds under any Tune calibration
   (> 16M flops), so the panel kernels really run — and must still
   agree with the naive oracles. *)
let test_gemm_domain_bit_identity () =
  let module Pool = Cbmf_parallel.Pool in
  let a = random_mat 257 200 and b = random_mat 200 211 in
  let nt_b = random_mat 211 200 in
  let tn_c = random_mat 257 211 in
  let s = random_mat 301 277 in
  let w = Array.init 200 (fun i -> 0.25 +. (0.125 *. float_of_int (i mod 8))) in
  let run () =
    [ Mat.matmul a b; Mat.matmul_nt a nt_b; Mat.matmul_tn a tn_c;
      Mat.syrk_tn s; Mat.syrk_nt s; Mat.matmul_nt_weighted a w nt_b ]
  in
  Pool.set_default_size 1;
  let seq = run () in
  List.iter
    (fun size ->
      Pool.set_default_size size;
      List.iteri
        (fun i (p : Mat.t) ->
          check_true
            (Printf.sprintf "kernel %d bit-identical at %d domains" i size)
            ((List.nth seq i).Mat.data = p.Mat.data))
        (run ()))
    [ 2; 4; 8 ];
  Pool.set_default_size (Pool.env_domains ());
  mat_close ~tol:1e-8 "matmul vs naive" (Mat.matmul_naive a b) (List.nth seq 0);
  mat_close ~tol:1e-8 "matmul_nt vs naive" (Mat.matmul_nt_naive a nt_b)
    (List.nth seq 1)

let test_syrk () =
  let a = random_mat 7 4 in
  mat_close ~tol:1e-10 "syrk_tn = aᵀa" (Mat.matmul_tn a a) (Mat.syrk_tn a);
  mat_close ~tol:1e-10 "syrk_nt = aaᵀ" (Mat.matmul_nt a a) (Mat.syrk_nt a);
  check_true "syrk_tn symmetric" (Mat.is_symmetric (Mat.syrk_tn a));
  check_true "syrk_nt symmetric" (Mat.is_symmetric (Mat.syrk_nt a))

let test_matmul_nt_weighted () =
  let a = random_mat 5 6 and b = random_mat 4 6 in
  let w = Array.init 6 (fun i -> 0.5 +. (0.25 *. float_of_int i)) in
  let scaled = Mat.init 5 6 (fun i j -> Mat.get a i j *. w.(j)) in
  mat_close ~tol:1e-10 "a·diag(w)·bᵀ" (Mat.matmul_nt scaled b)
    (Mat.matmul_nt_weighted a w b);
  (* Same physical matrix on both sides: symmetric fast path. *)
  let aw = Mat.matmul_nt_weighted a w a in
  let scaled_a = Mat.init 5 6 (fun i j -> Mat.get a i j *. w.(j)) in
  mat_close ~tol:1e-10 "a·diag(w)·aᵀ" (Mat.matmul_nt scaled_a a) aw;
  check_true "weighted self symmetric" (Mat.is_symmetric aw)

(* The cases below draw from their own seeded stream, so the shared
   [Helpers] stream (and every later suite's inputs) stays as it was. *)
let local_rng = Cbmf_prob.Rng.create 1301

let local_mat r c = Seeded.random_mat local_rng r c

let test_make_scalar () =
  let m = Mat.make 2 3 1.5 in
  check_int "rows" 2 (fst (Mat.dim m));
  check_int "cols" 3 (snd (Mat.dim m));
  check_float "make fills" 9.0 (Array.fold_left ( +. ) 0.0 m.Mat.data);
  mat_close "scalar = c·I" (Mat.scale 2.0 (Mat.identity 3)) (Mat.scalar 3 2.0)

let test_add_sub_scale () =
  let a = local_mat 3 4 and b = local_mat 3 4 in
  mat_close ~tol:1e-12 "(a + b) − b = a" a (Mat.sub (Mat.add a b) b);
  mat_close ~tol:1e-12 "2a = a + a" (Mat.add a a) (Mat.scale 2.0 a);
  let c = Mat.copy a in
  Mat.add_inplace c b;
  mat_close ~tol:1e-12 "add_inplace" (Mat.add a b) c;
  Mat.scale_inplace c 0.5;
  mat_close ~tol:1e-12 "scale_inplace" (Mat.scale 0.5 (Mat.add a b)) c

let test_add_scaled_inplace () =
  let a = local_mat 4 2 and b = local_mat 4 2 in
  let c = Mat.copy a in
  Mat.add_scaled_inplace c (-0.25) b;
  mat_close ~tol:1e-12 "a − b/4" (Mat.sub a (Mat.scale 0.25 b)) c

let test_into_variants () =
  let a = local_mat 5 3 and b = local_mat 3 4 and c = local_mat 6 3 in
  let dst = Mat.make 5 4 nan in
  Mat.matmul_into a b ~dst;
  mat_close ~tol:1e-12 "matmul_into" (Mat.matmul a b) dst;
  let dst = Mat.make 5 6 nan in
  Mat.matmul_nt_into a c ~dst;
  mat_close ~tol:1e-12 "matmul_nt_into" (Mat.matmul_nt a c) dst;
  let w = Vec.of_list [ 0.5; 2.0; 1.0 ] in
  let dst = Mat.make 5 6 nan in
  Mat.matmul_nt_weighted_into a w c ~dst;
  mat_close ~tol:1e-12 "matmul_nt_weighted_into"
    (Mat.matmul_nt_weighted a w c) dst

let test_map_mapi_update () =
  let a = Mat.init 2 3 (fun i j -> float_of_int ((3 * i) + j)) in
  mat_close "map" (Mat.init 2 3 (fun i j -> 2.0 *. float_of_int ((3 * i) + j)))
    (Mat.map (fun x -> 2.0 *. x) a);
  mat_close "mapi" (Mat.init 2 3 (fun i _ -> float_of_int i))
    (Mat.mapi (fun i _ _ -> float_of_int i) a);
  Mat.update a 1 2 (fun x -> x +. 10.0);
  check_float "update" 15.0 (Mat.get a 1 2)

let test_flat_layout () =
  let a = Mat.unsafe_of_flat ~rows:2 ~cols:3 [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  mat_close "row-major"
    (Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |])
    a;
  check_float "get (1, 0)" 4.0 (Mat.get a 1 0)

let test_submatrix_into () =
  let a = local_mat 5 6 in
  let dst = Mat.make 2 3 nan in
  Mat.submatrix_into a ~row0:2 ~col0:1 ~dst;
  mat_close "submatrix_into = submatrix"
    (Mat.submatrix a ~row0:2 ~col0:1 ~rows:2 ~cols:3)
    dst

let test_predicates () =
  check_true "square" (Mat.is_square (Mat.create 3 3));
  check_true "not square" (not (Mat.is_square (Mat.create 2 3)));
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0 +. 1e-6; 1.0 |] |] in
  check_true "asymmetric at default tol" (not (Mat.is_symmetric a));
  check_true "symmetric at loose tol" (Mat.is_symmetric ~tol:1e-3 a);
  check_true "shape mismatch not equal"
    (not (Mat.approx_equal (Mat.create 2 2) (Mat.create 2 3)))

let prop_frobenius_trace =
  qcase ~count:50 "‖a‖_F² = Tr(aᵀa)"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 8))
    (fun (r, c) ->
      let a = local_mat r c in
      let f = Mat.frobenius a in
      abs_float ((f *. f) -. Mat.trace (Mat.gram a)) < 1e-9 *. (1.0 +. (f *. f)))

let suite =
  [ ( "linalg.mat",
      [ case "identity" test_identity;
        case "transpose" test_transpose;
        case "matmul associativity" test_matmul_assoc;
        case "matmul_nt/tn" test_matmul_variants;
        case "blocked kernels = naive" test_blocked_vs_naive;
        case "GEMM bit-identical across domain counts"
          test_gemm_domain_bit_identity;
        case "syrk" test_syrk;
        case "matmul_nt_weighted" test_matmul_nt_weighted;
        case "mat_vec/mat_tvec" test_mat_vec;
        case "gram" test_gram;
        case "rows/cols" test_rows_cols;
        case "submatrix/select_cols" test_submatrix_select;
        case "outer/quadratic" test_outer_quadratic;
        case "add_outer_inplace" test_add_outer_inplace;
        case "diag/trace" test_diag_trace;
        case "symmetrize" test_symmetrize;
        case "norms" test_norms;
        prop_transpose_matmul;
        prop_trace_cyclic;
        case "make/scalar" test_make_scalar;
        case "add/sub/scale" test_add_sub_scale;
        case "add_scaled_inplace" test_add_scaled_inplace;
        case "_into variants" test_into_variants;
        case "map/mapi/update" test_map_mapi_update;
        case "flat row-major layout" test_flat_layout;
        case "submatrix_into" test_submatrix_into;
        case "predicates" test_predicates;
        prop_frobenius_trace ] ) ]
