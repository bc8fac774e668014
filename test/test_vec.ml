open Cbmf_linalg
open Helpers

let test_create () =
  let v = Vec.create 5 in
  check_int "dim" 5 (Vec.dim v);
  Array.iter (fun x -> check_float "zero" 0.0 x) v

let test_init_make () =
  let v = Vec.init 4 (fun i -> float_of_int (i * i)) in
  check_float "init" 9.0 (Vec.get v 3);
  let w = Vec.make 3 2.5 in
  check_float "make" 7.5 (Vec.sum w)

let test_basis () =
  let e = Vec.basis 4 2 in
  check_float "one" 1.0 e.(2);
  check_float "sum" 1.0 (Vec.sum e)

let test_linspace () =
  let v = Vec.linspace 0.0 1.0 5 in
  check_float "first" 0.0 v.(0);
  check_float "last" 1.0 v.(4);
  check_float "step" 0.25 v.(1)

let test_add_sub () =
  let x = Vec.of_list [ 1.0; 2.0; 3.0 ] and y = Vec.of_list [ 4.0; 5.0; 6.0 ] in
  vec_close "add" (Vec.of_list [ 5.0; 7.0; 9.0 ]) (Vec.add x y);
  vec_close "sub" (Vec.of_list [ -3.0; -3.0; -3.0 ]) (Vec.sub x y)

let test_inplace () =
  let x = Vec.of_list [ 1.0; 2.0 ] in
  Vec.scale_inplace x 3.0;
  vec_close "scale_inplace" (Vec.of_list [ 3.0; 6.0 ]) x;
  let y = Vec.of_list [ 1.0; 1.0 ] in
  Vec.add_inplace x y;
  vec_close "add_inplace" (Vec.of_list [ 4.0; 7.0 ]) x;
  Vec.sub_inplace x y;
  vec_close "sub_inplace" (Vec.of_list [ 3.0; 6.0 ]) x;
  Vec.axpy 2.0 y x;
  vec_close "axpy" (Vec.of_list [ 5.0; 8.0 ]) x

let test_dot_norms () =
  let x = Vec.of_list [ 3.0; 4.0 ] in
  check_float "dot" 25.0 (Vec.dot x x);
  check_float "norm2" 5.0 (Vec.norm2 x);
  check_float "norm1" 7.0 (Vec.norm1 x);
  check_float "norm_inf" 4.0 (Vec.norm_inf x);
  check_float "dist" 5.0 (Vec.dist x (Vec.create 2))

let test_argmax_argmin () =
  let v = Vec.of_list [ 1.0; 9.0; -3.0; 9.0 ] in
  check_int "argmax first" 1 (Vec.argmax v);
  check_int "argmin" 2 (Vec.argmin v);
  check_float "max" 9.0 (Vec.max v);
  check_float "min" (-3.0) (Vec.min v)

let test_mean () =
  check_float "mean" 2.0 (Vec.mean (Vec.of_list [ 1.0; 2.0; 3.0 ]))

let test_map () =
  vec_close "map" (Vec.of_list [ 1.0; 4.0 ])
    (Vec.map (fun x -> x *. x) (Vec.of_list [ 1.0; 2.0 ]));
  vec_close "mul" (Vec.of_list [ 2.0; 6.0 ])
    (Vec.mul (Vec.of_list [ 1.0; 2.0 ]) (Vec.of_list [ 2.0; 3.0 ]))

let test_approx_equal () =
  check_true "equal" (Vec.approx_equal (Vec.of_list [ 1.0 ]) (Vec.of_list [ 1.0 +. 1e-12 ]));
  check_true "not equal"
    (not (Vec.approx_equal (Vec.of_list [ 1.0 ]) (Vec.of_list [ 1.1 ])));
  check_true "dim mismatch"
    (not (Vec.approx_equal (Vec.of_list [ 1.0 ]) (Vec.of_list [ 1.0; 2.0 ])))

let prop_triangle =
  qcase "norm triangle inequality"
    QCheck2.Gen.(pair (list_size (int_range 1 20) (float_range (-100.) 100.))
                   (list_size (int_range 1 20) (float_range (-100.) 100.)))
    (fun (a, b) ->
      let n = Stdlib.min (List.length a) (List.length b) in
      let x = Array.of_list (List.filteri (fun i _ -> i < n) a) in
      let y = Array.of_list (List.filteri (fun i _ -> i < n) b) in
      Vec.norm2 (Vec.add x y) <= Vec.norm2 x +. Vec.norm2 y +. 1e-6)

let prop_cauchy_schwarz =
  qcase "Cauchy-Schwarz"
    QCheck2.Gen.(list_size (int_range 2 20) (float_range (-10.) 10.))
    (fun l ->
      let x = Array.of_list l in
      let y = Vec.map (fun v -> (2.0 *. v) -. 1.0) x in
      abs_float (Vec.dot x y) <= (Vec.norm2 x *. Vec.norm2 y) +. 1e-6)

let test_fill_blit () =
  let v = Vec.create 3 in
  Vec.fill v 1.5;
  vec_close "fill" (Vec.of_list [ 1.5; 1.5; 1.5 ]) v;
  let dst = Vec.create 3 in
  Vec.blit ~src:(Vec.of_list [ 1.0; 2.0; 3.0 ]) ~dst;
  vec_close "blit" (Vec.of_list [ 1.0; 2.0; 3.0 ]) dst

let test_neg_scale () =
  let x = Vec.of_list [ 1.0; -2.0; 0.5 ] in
  vec_close "neg" (Vec.of_list [ -1.0; 2.0; -0.5 ]) (Vec.neg x);
  vec_close "scale" (Vec.of_list [ 2.0; -4.0; 1.0 ]) (Vec.scale 2.0 x);
  vec_close "scale leaves input" (Vec.of_list [ 1.0; -2.0; 0.5 ]) x

let test_map2_fold () =
  let x = Vec.of_list [ 1.0; 2.0; 3.0 ] and y = Vec.of_list [ 4.0; 5.0; 6.0 ] in
  vec_close "map2 (+) = add" (Vec.add x y) (Vec.map2 ( +. ) x y);
  check_float "fold (+) = sum" (Vec.sum x) (Vec.fold ( +. ) 0.0 x);
  check_float "fold max" 3.0 (Vec.fold Float.max neg_infinity x)

let test_copy_independent () =
  let x = Vec.of_list [ 1.0; 2.0 ] in
  let y = Vec.copy x in
  Vec.set y 0 9.0;
  check_float "original untouched" 1.0 (Vec.get x 0);
  check_float "copy written" 9.0 (Vec.get y 0)

let test_to_string () =
  check_true "to_string"
    (Vec.to_string (Vec.of_list [ 1.5; -2.0 ]) = "[1.5; -2]")

let prop_norm_order =
  qcase "norm_inf <= norm2 <= norm1"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range (-100.) 100.))
    (fun l ->
      let x = Array.of_list l in
      Vec.norm_inf x <= Vec.norm2 x +. 1e-9
      && Vec.norm2 x <= Vec.norm1 x +. 1e-9)

let prop_dist_symmetric =
  qcase "dist symmetric, zero on self"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range (-10.) 10.))
    (fun l ->
      let x = Array.of_list l in
      let y = Vec.map (fun v -> (0.5 *. v) +. 1.0) x in
      Vec.dist x x = 0.0 && abs_float (Vec.dist x y -. Vec.dist y x) < 1e-12)

let suite =
  [ ( "linalg.vec",
      [ case "create" test_create;
        case "init/make" test_init_make;
        case "basis" test_basis;
        case "linspace" test_linspace;
        case "add/sub" test_add_sub;
        case "inplace ops" test_inplace;
        case "dot and norms" test_dot_norms;
        case "argmax/argmin" test_argmax_argmin;
        case "mean" test_mean;
        case "map/mul" test_map;
        case "approx_equal" test_approx_equal;
        prop_triangle;
        prop_cauchy_schwarz;
        case "fill/blit" test_fill_blit;
        case "neg/scale" test_neg_scale;
        case "map2/fold" test_map2_fold;
        case "copy independence" test_copy_independent;
        case "to_string" test_to_string;
        prop_norm_order;
        prop_dist_symmetric ] ) ]
