open Cbmf_linalg
open Helpers

(* --- QR --- *)

let test_qr_reconstruct () =
  let a = random_mat 8 5 in
  let f = Qr.factorize a in
  mat_close ~tol:1e-8 "q·r = a" a (Mat.matmul (Qr.q f) (Qr.r f))

let test_qr_orthonormal () =
  let a = random_mat 9 4 in
  let q = Qr.q (Qr.factorize a) in
  mat_close ~tol:1e-9 "qᵀq = I" (Mat.identity 4) (Mat.gram q)

let test_qr_lstsq_exact () =
  let a = random_mat 6 6 in
  let x = random_vec 6 in
  vec_close ~tol:1e-7 "square solve" x (Qr.lstsq a (Mat.mat_vec a x))

let test_qr_lstsq_overdetermined () =
  (* Residual of the LS solution must be orthogonal to the columns. *)
  let a = random_mat 12 4 in
  let b = random_vec 12 in
  let x = Qr.lstsq a b in
  let r = Vec.sub (Mat.mat_vec a x) b in
  let proj = Mat.mat_tvec a r in
  check_true "normal equations" (Vec.norm_inf proj < 1e-8)

let test_qr_rank_deficient () =
  let a = Mat.init 5 3 (fun i _ -> float_of_int i) in
  (* All columns identical → rank 1. *)
  match Qr.lstsq a (random_vec 5) with
  | _ -> Alcotest.fail "expected Rank_deficient"
  | exception Qr.Rank_deficient _ -> ()

(* The cases below draw from their own seeded stream, so the shared
   [Helpers] stream (and every later suite's inputs) stays as it was. *)
let local_rng = Cbmf_prob.Rng.create 1307

let local_mat r c = Seeded.random_mat local_rng r c

let local_vec n = Seeded.random_vec local_rng n

let test_qr_r_upper () =
  let r = Qr.r (Qr.factorize (local_mat 7 5)) in
  check_int "r is n×n" 5 (fst (Mat.dim r));
  for i = 0 to 4 do
    for j = 0 to i - 1 do
      check_float "below diagonal" 0.0 (Mat.get r i j)
    done
  done

let test_qr_solve_reuse () =
  (* One factorization serves several right-hand sides, each matching
     the one-shot solve bit for bit. *)
  let a = local_mat 10 4 in
  let f = Qr.factorize a in
  for _ = 1 to 3 do
    let b = local_vec 10 in
    check_true "solve_least_squares = lstsq"
      (Qr.solve_least_squares f b = Qr.lstsq a b)
  done

let test_qr_consistent_tall () =
  let a = local_mat 15 4 in
  let x = Vec.of_list [ 1.0; -2.0; 0.5; 3.0 ] in
  vec_close ~tol:1e-9 "consistent system recovered" x
    (Qr.lstsq a (Mat.mat_vec a x))

let test_qr_zero_column () =
  let a = Mat.init 6 3 (fun i j -> if j = 1 then 0.0 else float_of_int (i + j + 1) ** float_of_int (j + 1)) in
  match Qr.lstsq a (local_vec 6) with
  | _ -> Alcotest.fail "expected Rank_deficient"
  | exception Qr.Rank_deficient _ -> ()

let prop_qr_normal_equations =
  qcase ~count:40 "residual ⟂ columns, random shapes"
    QCheck2.Gen.(pair (int_range 1 6) (int_range 0 6))
    (fun (n, extra) ->
      let a = local_mat (n + extra) n in
      let b = local_vec (n + extra) in
      let x = Qr.lstsq a b in
      let r = Vec.sub (Mat.mat_vec a x) b in
      Vec.norm_inf (Mat.mat_tvec a r) <= 1e-8 *. Float.max 1.0 (Vec.norm2 b))

let suite =
  [ ( "linalg.qr",
      [ case "reconstruct" test_qr_reconstruct;
        case "orthonormal q" test_qr_orthonormal;
        case "exact solve" test_qr_lstsq_exact;
        case "least squares orthogonality" test_qr_lstsq_overdetermined;
        case "rank deficiency" test_qr_rank_deficient;
        case "r upper triangular" test_qr_r_upper;
        case "factorization reuse" test_qr_solve_reuse;
        case "consistent tall system" test_qr_consistent_tall;
        case "zero column" test_qr_zero_column;
        prop_qr_normal_equations ] ) ]
