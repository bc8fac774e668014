type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
  mutable spare : float;
  mutable has_spare : bool;
}

(* splitmix64 — used only for seeding and splitting. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let state = ref seed64 in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3; spare = 0.0; has_spare = false }

let create seed = of_seed64 (Int64.of_int seed)

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let uint64 r =
  let open Int64 in
  let result = mul (rotl (mul r.s1 5L) 7) 9L in
  let t = shift_left r.s1 17 in
  r.s2 <- logxor r.s2 r.s0;
  r.s3 <- logxor r.s3 r.s1;
  r.s1 <- logxor r.s1 r.s2;
  r.s0 <- logxor r.s0 r.s3;
  r.s2 <- logxor r.s2 t;
  r.s3 <- rotl r.s3 45;
  result

let split r = of_seed64 (uint64 r)

(* Independent stream addressed by (base, index): the index is hashed
   through splitmix64 before mixing so that adjacent indices land far
   apart in seed space.  Pure in both arguments — the backbone of the
   deterministic parallel Monte-Carlo path, where stream [i] must not
   depend on how many domains generated streams [0..i-1]. *)
let derive base ~index =
  let st = ref (Int64.of_int index) in
  let h = splitmix64_next st in
  of_seed64 (Int64.logxor base h)

let seed_of r = uint64 r

let copy r = { r with s0 = r.s0 }

let float r =
  (* Use the top 53 bits. *)
  let bits = Int64.shift_right_logical (uint64 r) 11 in
  Int64.to_float bits *. 0x1.0p-53

let uniform r a b = a +. ((b -. a) *. float r)

let int r n =
  assert (n > 0);
  (* Rejection sampling on 62 usable non-negative bits. *)
  let bound = Int64.of_int n in
  let limit = Int64.sub (Int64.div Int64.max_int bound) 1L in
  let rec go () =
    let raw = Int64.shift_right_logical (uint64 r) 1 in
    let q = Int64.div raw bound in
    if Int64.compare q limit <= 0 then Int64.to_int (Int64.rem raw bound)
    else go ()
  in
  go ()

let bool r = Int64.compare (Int64.logand (uint64 r) 1L) 0L <> 0

let gaussian r =
  if r.has_spare then begin
    r.has_spare <- false;
    r.spare
  end
  else begin
    let rec draw () =
      let u = (2.0 *. float r) -. 1.0 in
      let v = (2.0 *. float r) -. 1.0 in
      let s = (u *. u) +. (v *. v) in
      if s >= 1.0 || s = 0.0 then draw () else (u, v, s)
    in
    let u, v, s = draw () in
    let m = sqrt (-2.0 *. log s /. s) in
    r.spare <- v *. m;
    r.has_spare <- true;
    u *. m
  end

let gaussian_vector r n = Array.init n (fun _ -> gaussian r)

let shuffle_inplace r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation r n =
  let a = Array.init n (fun i -> i) in
  shuffle_inplace r a;
  a
