open Cbmf_linalg

let rmse ~predicted ~actual =
  assert (Array.length predicted = Array.length actual);
  assert (Array.length actual > 0);
  Vec.dist predicted actual /. sqrt (float_of_int (Array.length actual))

let relative_rms ~predicted ~actual =
  let denom = Vec.norm2 actual in
  if denom <= 0.0 then invalid_arg "Metrics.relative_rms: zero actual";
  Vec.dist predicted actual /. denom

let relative_rms_pooled pairs =
  assert (Array.length pairs > 0);
  let num = ref 0.0 and den = ref 0.0 in
  Array.iter
    (fun (predicted, actual) ->
      let d = Vec.dist predicted actual in
      num := !num +. (d *. d);
      den := !den +. Vec.norm2_sq actual)
    pairs;
  if !den <= 0.0 then invalid_arg "Metrics.relative_rms_pooled: zero actual";
  sqrt (!num /. !den)

let percent x = 100.0 *. x

let r_squared ~predicted ~actual =
  let n = Array.length actual in
  assert (n > 0 && Array.length predicted = n);
  let mean = Vec.mean actual in
  let ss_tot = ref 0.0 and ss_res = ref 0.0 in
  for i = 0 to n - 1 do
    let dt = actual.(i) -. mean in
    let dr = actual.(i) -. predicted.(i) in
    ss_tot := !ss_tot +. (dt *. dt);
    ss_res := !ss_res +. (dr *. dr)
  done;
  if !ss_tot <= 0.0 then 0.0 else 1.0 -. (!ss_res /. !ss_tot)

let support_precision_recall ~truth ~estimate =
  let tbl = Hashtbl.create (2 * Array.length truth) in
  Array.iter (fun j -> Hashtbl.replace tbl j ()) truth;
  let tp = Array.fold_left
      (fun acc j -> if Hashtbl.mem tbl j then acc + 1 else acc)
      0 estimate
  in
  let precision =
    if Array.length estimate = 0 then 0.0
    else float_of_int tp /. float_of_int (Array.length estimate)
  in
  let recall =
    if Array.length truth = 0 then 0.0
    else float_of_int tp /. float_of_int (Array.length truth)
  in
  (precision, recall)

let support_f1 ~truth ~estimate =
  let p, r = support_precision_recall ~truth ~estimate in
  if p +. r <= 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r)

let coeffs_rmse ~truth ~estimate =
  if truth.Mat.rows <> estimate.Mat.rows || truth.Mat.cols <> estimate.Mat.cols
  then invalid_arg "Metrics.coeffs_rmse: shape mismatch";
  let n = Array.length truth.Mat.data in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = estimate.Mat.data.(i) -. truth.Mat.data.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)

let predict_state ~coeffs (d : Dataset.t) k =
  assert (coeffs.Mat.rows = d.Dataset.n_states);
  assert (coeffs.Mat.cols = d.Dataset.n_basis);
  Mat.mat_vec d.Dataset.design.(k) (Mat.row coeffs k)

let coeffs_error_pooled ~coeffs (d : Dataset.t) =
  let pairs =
    Array.init d.Dataset.n_states (fun k ->
        (predict_state ~coeffs d k, d.Dataset.response.(k)))
  in
  relative_rms_pooled pairs
