type t = {
  m : int;
  n : int;
  qr : float array; (* Householder vectors below diagonal, R on/above *)
  tau : float array; (* Householder scalar factors *)
}

exception Rank_deficient of int

let factorize (a : Mat.t) =
  let m = a.Mat.rows and n = a.Mat.cols in
  assert (m >= n);
  let qr = Array.copy a.Mat.data in
  let tau = Array.make n 0.0 in
  for j = 0 to n - 1 do
    (* Householder vector for column j, rows j..m-1. *)
    let norm = ref 0.0 in
    for i = j to m - 1 do
      let x = qr.((i * n) + j) in
      norm := !norm +. (x *. x)
    done;
    let norm = sqrt !norm in
    if norm > 0.0 then begin
      let alpha = if qr.((j * n) + j) >= 0.0 then -.norm else norm in
      (* v = x - alpha e1, stored with v.(j) implicit as 1 after scaling *)
      let v0 = qr.((j * n) + j) -. alpha in
      tau.(j) <- -.v0 /. alpha;
      for i = j + 1 to m - 1 do
        qr.((i * n) + j) <- qr.((i * n) + j) /. v0
      done;
      qr.((j * n) + j) <- alpha;
      (* Apply H = I - tau v vᵀ to remaining columns. *)
      for k = j + 1 to n - 1 do
        let s = ref qr.((j * n) + k) in
        for i = j + 1 to m - 1 do
          s := !s +. (qr.((i * n) + j) *. qr.((i * n) + k))
        done;
        let s = tau.(j) *. !s in
        qr.((j * n) + k) <- qr.((j * n) + k) -. s;
        for i = j + 1 to m - 1 do
          qr.((i * n) + k) <- qr.((i * n) + k) -. (s *. qr.((i * n) + j))
        done
      done
    end
    else tau.(j) <- 0.0
  done;
  { m; n; qr; tau }

let r f =
  Mat.init f.n f.n (fun i j -> if j >= i then f.qr.((i * f.n) + j) else 0.0)

(* Apply qᵀ to a length-m vector in place (Householder reflections in
   order). *)
let apply_qt f (b : float array) =
  for j = 0 to f.n - 1 do
    if f.tau.(j) <> 0.0 then begin
      let s = ref b.(j) in
      for i = j + 1 to f.m - 1 do
        s := !s +. (f.qr.((i * f.n) + j) *. b.(i))
      done;
      let s = f.tau.(j) *. !s in
      b.(j) <- b.(j) -. s;
      for i = j + 1 to f.m - 1 do
        b.(i) <- b.(i) -. (s *. f.qr.((i * f.n) + j))
      done
    end
  done

(* Apply q to a length-m vector in place (reflections in reverse). *)
let apply_q f (b : float array) =
  for j = f.n - 1 downto 0 do
    if f.tau.(j) <> 0.0 then begin
      let s = ref b.(j) in
      for i = j + 1 to f.m - 1 do
        s := !s +. (f.qr.((i * f.n) + j) *. b.(i))
      done;
      let s = f.tau.(j) *. !s in
      b.(j) <- b.(j) -. s;
      for i = j + 1 to f.m - 1 do
        b.(i) <- b.(i) -. (s *. f.qr.((i * f.n) + j))
      done
    end
  done

let q f =
  let qmat = Mat.create f.m f.n in
  for j = 0 to f.n - 1 do
    let e = Array.make f.m 0.0 in
    e.(j) <- 1.0;
    apply_q f e;
    Mat.set_col qmat j e
  done;
  qmat

let solve_least_squares f (b : Vec.t) =
  assert (Array.length b = f.m);
  let c = Array.copy b in
  apply_qt f c;
  (* Back-substitute on the n×n upper triangle. *)
  let x = Array.make f.n 0.0 in
  for i = f.n - 1 downto 0 do
    let d = f.qr.((i * f.n) + i) in
    if abs_float d < 1e-300 || Float.is_nan d then raise (Rank_deficient i);
    let s = ref c.(i) in
    for k = i + 1 to f.n - 1 do
      s := !s -. (f.qr.((i * f.n) + k) *. x.(k))
    done;
    x.(i) <- !s /. d
  done;
  x

let lstsq a b = solve_least_squares (factorize a) b
