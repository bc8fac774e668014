open Cbmf_linalg
open Cbmf_model
open Helpers

(* Small synthetic multi-state dataset with planted sparse truth. *)
let planted ?(k = 6) ?(n = 30) ?(m = 40) ?(noise = 0.01) ?(seed = 5) () =
  let rng = Cbmf_prob.Rng.create seed in
  let support = [| 0; 7; 19 |] in
  (* column 0 is constant *)
  let coef s j =
    match j with
    | 0 -> 3.0
    | 7 -> 1.0 +. (0.1 *. float_of_int s)
    | 19 -> -0.5
    | _ -> 0.0
  in
  ignore support;
  let design =
    Array.init k (fun _ ->
        Mat.init n m (fun _ j -> if j = 0 then 1.0 else Cbmf_prob.Rng.gaussian rng))
  in
  let response =
    Array.init k (fun s ->
        Array.init n (fun i ->
            let acc = ref (noise *. Cbmf_prob.Rng.gaussian rng) in
            for j = 0 to m - 1 do
              let c = coef s j in
              if c <> 0.0 then acc := !acc +. (c *. Mat.get design.(s) i j)
            done;
            !acc))
  in
  Dataset.create ~design ~response

(* --- Dataset --- *)

let test_dataset_shapes () =
  let d = planted () in
  check_int "states" 6 d.Dataset.n_states;
  check_int "samples" 30 d.Dataset.n_samples;
  check_int "basis" 40 d.Dataset.n_basis;
  check_int "total" 180 (Dataset.total_samples d)

let test_dataset_truncate () =
  let d = planted () in
  let t = Dataset.truncate_samples d ~n:10 in
  check_int "truncated" 10 t.Dataset.n_samples;
  check_float "prefix" d.Dataset.response.(2).(3) t.Dataset.response.(2).(3)

let test_dataset_fold_split () =
  let d = planted ~n:10 () in
  let train, test = Dataset.split_fold d ~n_folds:5 ~fold:0 in
  check_int "train" 8 train.Dataset.n_samples;
  check_int "test" 2 test.Dataset.n_samples;
  (* Folds partition the rows: over all folds each row appears once. *)
  let seen = Array.make 10 0 in
  for fold = 0 to 4 do
    let _, te = Dataset.split_fold d ~n_folds:5 ~fold in
    for i = 0 to te.Dataset.n_samples - 1 do
      (* identify original row by its response value *)
      let y = te.Dataset.response.(0).(i) in
      Array.iteri
        (fun orig v -> if v = y then seen.(orig) <- seen.(orig) + 1)
        d.Dataset.response.(0)
    done
  done;
  Array.iter (fun c -> check_int "row covered once" 1 c) seen

let test_dataset_select_rows () =
  let d = planted ~n:5 () in
  let sel = Dataset.select_rows d (Array.make 6 [| 4; 0 |]) in
  check_int "rows" 2 sel.Dataset.n_samples;
  check_float "reorder" d.Dataset.response.(1).(4) sel.Dataset.response.(1).(0)

let test_dataset_mismatch_rejected () =
  let d = planted ~n:5 () in
  match
    Dataset.create
      ~design:d.Dataset.design
      ~response:(Array.map (fun y -> Array.sub y 0 3) d.Dataset.response)
  with
  | _ -> Alcotest.fail "expected assert failure"
  | exception Assert_failure _ -> ()

(* --- Metrics --- *)

let test_metrics_rmse () =
  let p = Vec.of_list [ 1.0; 2.0 ] and a = Vec.of_list [ 1.0; 4.0 ] in
  check_float ~tol:1e-12 "rmse" (sqrt 2.0) (Metrics.rmse ~predicted:p ~actual:a)

let test_metrics_relative () =
  let a = Vec.of_list [ 3.0; 4.0 ] in
  check_float ~tol:1e-12 "relative zero" 0.0
    (Metrics.relative_rms ~predicted:(Vec.copy a) ~actual:a);
  check_float ~tol:1e-12 "relative" 1.0
    (Metrics.relative_rms ~predicted:(Vec.create 2) ~actual:a);
  check_float "percent" 12.5 (Metrics.percent 0.125)

let test_metrics_pooled () =
  let a1 = Vec.of_list [ 1.0; 0.0 ] and a2 = Vec.of_list [ 0.0; 2.0 ] in
  let p1 = Vec.of_list [ 0.0; 0.0 ] and p2 = Vec.of_list [ 0.0; 2.0 ] in
  (* pooled = sqrt(1/(1+4)) *)
  check_float ~tol:1e-12 "pooled" (sqrt 0.2)
    (Metrics.relative_rms_pooled [| (p1, a1); (p2, a2) |])

let test_metrics_r2 () =
  let a = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  check_float ~tol:1e-12 "perfect" 1.0 (Metrics.r_squared ~predicted:(Vec.copy a) ~actual:a);
  check_float ~tol:1e-12 "mean model" 0.0
    (Metrics.r_squared ~predicted:(Vec.make 3 2.0) ~actual:a)

(* --- OLS --- *)

let test_ols_recovers () =
  let d = planted ~n:50 ~noise:0.0 () in
  let coeffs = Ols.fit d in
  check_float ~tol:1e-8 "exact recovery" 0.0 (Metrics.coeffs_error_pooled ~coeffs d);
  check_float ~tol:1e-6 "known coefficient" 1.2 (Mat.get coeffs 2 7)

let test_ols_on_support () =
  let d = planted ~noise:0.0 () in
  let coeffs = Ols.fit_on_support d ~support:[| 0; 7; 19 |] in
  check_float ~tol:1e-8 "support recovery" 0.0 (Metrics.coeffs_error_pooled ~coeffs d);
  check_float "off support zero" 0.0 (Mat.get coeffs 0 3)

(* --- S-OMP --- *)

let test_somp_shared_support () =
  let d = planted ~noise:0.01 () in
  let r = Somp.fit d ~n_terms:3 in
  let sorted = Array.copy r.Somp.support in
  Array.sort compare sorted;
  check_true "shared support" (sorted = [| 0; 7; 19 |])

let test_somp_beats_per_state_at_small_n () =
  (* With few samples per state, pooling the selection across states
     finds the true support more reliably than per-state OMP. *)
  let d = planted ~k:8 ~n:8 ~m:60 ~noise:0.05 ~seed:11 () in
  let test_data = planted ~k:8 ~n:50 ~m:60 ~noise:0.05 ~seed:12 () in
  let r = Somp.fit d ~n_terms:3 in
  let somp_err = Metrics.coeffs_error_pooled ~coeffs:r.Somp.coeffs test_data in
  let per_state_err =
    (* S-OMP on a one-state dataset is plain OMP on that state. *)
    let coeffs = Mat.create 8 60 in
    for s = 0 to 7 do
      let one =
        Dataset.create ~design:[| d.Dataset.design.(s) |]
          ~response:[| d.Dataset.response.(s) |]
      in
      let o = Somp.fit one ~n_terms:3 in
      Mat.set_row coeffs s (Mat.row o.Somp.coeffs 0)
    done;
    Metrics.coeffs_error_pooled ~coeffs test_data
  in
  check_true "somp <= per-state omp" (somp_err <= per_state_err +. 1e-6)

let test_somp_select_next_excludes () =
  let d = planted ~noise:0.0 () in
  let residual = Array.map Vec.copy d.Dataset.response in
  let exclude = Array.make d.Dataset.n_basis false in
  let first = Somp.select_next d ~residual ~exclude in
  exclude.(first) <- true;
  let second = Somp.select_next d ~residual ~exclude in
  check_true "different" (first <> second)

let test_somp_cv () =
  let d = planted ~noise:0.02 ~n:20 () in
  let r, chosen = Somp.fit_cv d ~n_folds:4 ~candidate_terms:[| 1; 3; 8 |] in
  check_true "chosen sane" (chosen = 3 || chosen = 8);
  check_true "support size" (Array.length r.Somp.support >= 3)

(* --- Kept-surface cases --- *)

let one_state (d : Dataset.t) s =
  Dataset.create ~design:[| d.Dataset.design.(s) |]
    ~response:[| d.Dataset.response.(s) |]

let test_dataset_caches () =
  let d = planted ~n:12 ~m:9 () in
  let b = Dataset.state_design d 2 and y = Dataset.state_response d 2 in
  check_true "state_design" (b == d.Dataset.design.(2));
  check_true "state_response" (y == d.Dataset.response.(2));
  vec_close ~tol:1e-12 "bty = Bᵀy" (Mat.mat_tvec b y) (Dataset.bty d 2);
  mat_close ~tol:1e-12 "gram = BᵀB" (Mat.gram b) (Dataset.gram d 2);
  vec_close ~tol:1e-12 "column_norms"
    (Array.init 9 (fun j -> Vec.norm2 (Mat.col b j)))
    (Dataset.column_norms d 2);
  check_true "cached, not recomputed" (Dataset.bty d 2 == Dataset.bty d 2)

let test_dataset_append_row () =
  let d = planted ~k:2 ~n:4 ~m:3 () in
  let rows = [| Vec.of_list [ 1.0; 2.0; 3.0 ]; Vec.of_list [ 4.0; 5.0; 6.0 ] |] in
  let grown = Dataset.append_row d ~rows ~ys:[| 7.0; 8.0 |] in
  check_int "one more sample" 5 grown.Dataset.n_samples;
  check_int "parent unchanged" 4 d.Dataset.n_samples;
  vec_close "new row" rows.(1) (Mat.row grown.Dataset.design.(1) 4);
  check_float "new response" 8.0 grown.Dataset.response.(1).(4);
  check_raises_invalid "row width" (fun () ->
      Dataset.append_row d ~rows:[| Vec.create 2; Vec.create 2 |] ~ys:[| 0.0; 0.0 |])

let test_dataset_validate () =
  let d = planted ~k:2 ~n:4 ~m:3 () in
  check_true "finite ok" (Dataset.validate d = Ok ());
  let design = Array.map Mat.copy d.Dataset.design in
  let response = Array.map Vec.copy d.Dataset.response in
  Mat.set design.(1) 2 1 nan;
  response.(0).(3) <- infinity;
  let bad = Dataset.create ~design ~response in
  match Dataset.validate bad with
  | Ok () -> Alcotest.fail "expected a report"
  | Error rep ->
      check_int "two rows flagged" 2 (Array.length rep.Dataset.invalid);
      let first = rep.Dataset.invalid.(0) and second = rep.Dataset.invalid.(1) in
      check_true "response flagged as col -1"
        (first.Dataset.state = 0 && first.Dataset.row = 3 && first.Dataset.col = -1);
      check_true "design column located"
        (second.Dataset.state = 1 && second.Dataset.row = 2 && second.Dataset.col = 1);
      (match Dataset.validate_exn bad with
      | () -> Alcotest.fail "expected a typed fault"
      | exception Cbmf_robust.Fault.Error _ -> ())

let test_metrics_support () =
  let p, r = Metrics.support_precision_recall ~truth:[| 0; 7; 19 |] ~estimate:[| 7; 19; 3; 5 |] in
  check_float ~tol:1e-12 "precision" 0.5 p;
  check_float ~tol:1e-12 "recall" (2.0 /. 3.0) r;
  check_float ~tol:1e-12 "f1" (4.0 /. 7.0)
    (Metrics.support_f1 ~truth:[| 0; 7; 19 |] ~estimate:[| 7; 19; 3; 5 |]);
  check_float "both empty" 0.0 (Metrics.support_f1 ~truth:[||] ~estimate:[||]);
  check_float "exact" 1.0 (Metrics.support_f1 ~truth:[| 1; 2 |] ~estimate:[| 2; 1 |])

let test_metrics_coeffs_rmse () =
  let t = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |] |] in
  let e = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 0.0; 2.0 |] |] in
  check_float ~tol:1e-12 "rmse over entries" 1.0 (Metrics.coeffs_rmse ~truth:t ~estimate:e);
  check_raises_invalid "shape mismatch" (fun () ->
      Metrics.coeffs_rmse ~truth:t ~estimate:(Mat.create 2 3))

let test_metrics_predict_state () =
  let d = planted ~k:3 ~n:5 ~m:4 () in
  let coeffs = Mat.init 3 4 (fun k j -> float_of_int ((k * 4) + j)) in
  vec_close ~tol:1e-12 "ŷ_k = B_k·coeffs_k"
    (Mat.mat_vec d.Dataset.design.(1) (Mat.row coeffs 1))
    (Metrics.predict_state ~coeffs d 1)

let test_ols_fit_vec () =
  let d = planted ~k:1 ~n:25 ~m:6 ~noise:0.0 () in
  let b = d.Dataset.design.(0) in
  let x = Vec.of_list [ 1.0; -1.0; 0.5; 0.0; 2.0; 0.25 ] in
  vec_close ~tol:1e-9 "exact solve" x (Ols.fit_vec ~design:b ~response:(Mat.mat_vec b x));
  mat_close ~tol:1e-12 "fit = per-state fit_vec"
    (Mat.of_arrays [| Ols.fit_vec ~design:b ~response:d.Dataset.response.(0) |])
    (Ols.fit d)

let test_somp_one_state_recovery () =
  (* One-state S-OMP is plain OMP on that state. *)
  let d = planted ~noise:0.0 () in
  let r = Somp.fit (one_state d 0) ~n_terms:3 in
  let sorted = Array.copy r.Somp.support in
  Array.sort compare sorted;
  check_true "support found" (sorted = [| 0; 7; 19 |]);
  check_float ~tol:1e-8 "coefficient" (-0.5) (Mat.get r.Somp.coeffs 0 19)

let test_somp_one_state_prediction () =
  let d = planted ~noise:0.01 () in
  let one = one_state d 1 in
  let r = Somp.fit one ~n_terms:3 in
  check_true "fit quality"
    (Metrics.relative_rms
       ~predicted:(Metrics.predict_state ~coeffs:r.Somp.coeffs one 0)
       ~actual:d.Dataset.response.(1)
     < 0.05)

let test_somp_matches_naive () =
  let d = planted ~noise:0.02 () in
  let fast = Somp.fit d ~n_terms:5 and slow = Somp.fit_naive d ~n_terms:5 in
  check_true "same support" (fast.Somp.support = slow.Somp.support);
  mat_close ~tol:1e-9 "same coefficients" slow.Somp.coeffs fast.Somp.coeffs

let test_somp_caps_terms () =
  let d = planted ~n:4 ~m:10 () in
  let r = Somp.fit d ~n_terms:50 in
  check_true "support capped at N" (Array.length r.Somp.support <= 4);
  let distinct = List.sort_uniq compare (Array.to_list r.Somp.support) in
  check_int "no repeats" (Array.length r.Somp.support) (List.length distinct)

let suite =
  [ ( "model.dataset",
      [ case "shapes" test_dataset_shapes;
        case "truncate" test_dataset_truncate;
        case "fold split partitions" test_dataset_fold_split;
        case "select_rows" test_dataset_select_rows;
        case "shape mismatch rejected" test_dataset_mismatch_rejected;
        case "cached products" test_dataset_caches;
        case "append_row" test_dataset_append_row;
        case "validate report" test_dataset_validate ] );
    ( "model.metrics",
      [ case "rmse" test_metrics_rmse;
        case "relative" test_metrics_relative;
        case "pooled" test_metrics_pooled;
        case "r-squared" test_metrics_r2;
        case "support precision/recall/F1" test_metrics_support;
        case "coeffs_rmse" test_metrics_coeffs_rmse;
        case "predict_state" test_metrics_predict_state ] );
    ( "model.ols",
      [ case "recovers planted model" test_ols_recovers;
        case "fit on support" test_ols_on_support;
        case "fit_vec" test_ols_fit_vec ] );
    ( "model.somp",
      [ case "shared support" test_somp_shared_support;
        case "beats per-state at small N" test_somp_beats_per_state_at_small_n;
        case "select_next exclusion" test_somp_select_next_excludes;
        case "cv" test_somp_cv;
        case "one-state exact recovery" test_somp_one_state_recovery;
        case "one-state prediction" test_somp_one_state_prediction;
        case "fit = fit_naive" test_somp_matches_naive;
        case "support capped, no repeats" test_somp_caps_terms ] ) ]
