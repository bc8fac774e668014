(* Workload lna-fit: the paper's own flow on the tunable LNA (K = 32
   states, 1264 process variables, linear dictionary M = 1265).  One
   iteration is a Monte-Carlo run of [n_train] samples per state, then
   Cbmf.fit, Model.of_fit and Snapshot.encode for NF, VG and IIP3, each
   shipped into the live server. *)

open Cbmf_linalg
open Cbmf_model
open Cbmf_circuit
open Cbmf_core
open Cbmf_serve
open Common

let n_train = 8
let n_test = 10

type ctx = { w : Cbmf_experiments.Workload.t }

let setup () = { w = Cbmf_experiments.Workload.lna () }

let tb ctx = ctx.w.Cbmf_experiments.Workload.testbench
let dict ctx = ctx.w.Cbmf_experiments.Workload.dictionary
let n_poi ctx = Testbench.n_pois (tb ctx)

(* Iteration [iter] of seed [seed] draws its training and test samples
   from streams of their own. *)
let rng ~seed ~iter ~test =
  Cbmf_prob.Rng.derive (Int64.of_int seed) ~index:((2 * iter) + Bool.to_int test)

let test_sets ctx ~seed ~iter =
  let mc =
    Montecarlo.generate (tb ctx) (rng ~seed ~iter ~test:true) ~n_per_state:n_test
  in
  let data =
    { Cbmf_experiments.Workload.workload = ctx.w; train_pool = mc; test = mc }
  in
  Array.init (n_poi ctx) (fun poi ->
      Cbmf_experiments.Workload.test_dataset data ~poi)

type shipped = {
  coeffs : Mat.t array;  (** per PoI, raw units *)
  images : string array;  (** per PoI snapshot image *)
  served : Model.t;  (** the NF model, probed after the timed loop *)
}

let fingerprint s =
  hash_floats (Array.to_list (Array.map (fun (c : Mat.t) -> c.Mat.data) s.coeffs))
  ^ ":"
  ^ hash_string (String.concat "" (Array.to_list s.images))

let ship fd ctx ~poi model_view =
  let m = Model.of_fit ~dict:(dict ctx) model_view in
  let image = Snapshot.encode m in
  Wire.load fd ~name:(Cbmf_experiments.Workload.poi_name ctx.w poi) image;
  (m, image)

(* The library's own path: Workload datasets and Cbmf.fit. *)
let run fd ctx ~seed ~iter =
  let t0 = now () in
  let mc =
    Montecarlo.generate (tb ctx) (rng ~seed ~iter ~test:false)
      ~n_per_state:n_train
  in
  let data =
    { Cbmf_experiments.Workload.workload = ctx.w; train_pool = mc; test = mc }
  in
  let fits =
    Array.init (n_poi ctx) (fun poi ->
        let train =
          Cbmf_experiments.Workload.train_dataset data ~poi ~n_per_state:n_train
        in
        let model = Cbmf.fit train in
        let m, image = ship fd ctx ~poi (Cbmf.fitted_view model) in
        (model, m, image))
  in
  let wall = now () -. t0 in
  let tests = test_sets ctx ~seed ~iter in
  let err =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun poi (model, _, _) -> Cbmf.test_error model tests.(poi)) fits)
    /. float_of_int (Array.length fits)
  in
  let s =
    {
      coeffs = Array.map (fun (model, _, _) -> model.Cbmf.coeffs) fits;
      images = Array.map (fun (_, _, image) -> image) fits;
      served = (let _, m, _ = fits.(0) in m);
    }
  in
  (wall, err, s)

(* The same iteration replayed layer by layer: Cbmf.fit's body
   (Standardize.fit -> Init.run -> Em.run with a timed Posterior.compute
   on one workspace -> coefficients -> unstandardize, with Cbmf.fit's
   min_sigma0 floor), every call wrapped in a span.  Returns the wall
   time, the shipped models and the per-layer seconds and counts. *)
let traced fd ctx ~seed ~iter =
  let t_mc = ref 0.0 and t_design = ref 0.0 and t_std = ref 0.0 in
  let t_init = ref 0.0 and t_em = ref 0.0 and t_post = ref 0.0 in
  let t_extract = ref 0.0 and t_of_fit = ref 0.0 and t_encode = ref 0.0 in
  let t_load = ref 0.0 in
  let dual = ref 0 and primal = ref 0 and em_iters = ref 0 in
  let bytes = ref 0 in
  let t0 = now () in
  let mc =
    span t_mc (fun () ->
        Montecarlo.generate (tb ctx) (rng ~seed ~iter ~test:false)
          ~n_per_state:n_train)
  in
  let k = Testbench.n_states (tb ctx) in
  let one poi =
    let train =
      let design =
        span t_design (fun () ->
            Array.init k (fun s ->
                Cbmf_basis.Dictionary.design_matrix (dict ctx)
                  mc.Montecarlo.states.(s).Montecarlo.xs))
      in
      Dataset.create ~design
        ~response:(Array.init k (fun s -> Montecarlo.poi_column mc ~state:s ~poi))
    in
    let transform, std = span t_std (fun () -> Standardize.fit train) in
    let config = Cbmf.default_config in
    let init = span t_init (fun () -> Init.run ~config:config.Cbmf.init std) in
    let em_config =
      {
        config.Cbmf.em with
        Em.min_sigma0 =
          Float.max config.Cbmf.em.Em.min_sigma0 (0.9 *. init.Init.cv_error);
      }
    in
    let ws = Posterior.make_workspace () in
    let posterior ?need_sigma d prior ~active =
      let p =
        span t_post (fun () -> Posterior.compute ?need_sigma ~ws d prior ~active)
      in
      incr (match p.Posterior.path with `Dual -> dual | `Primal -> primal);
      p
    in
    let prior, post, trace =
      span t_em (fun () -> Em.run ~config:em_config ~posterior std init.Init.prior)
    in
    em_iters := !em_iters + trace.Em.iterations;
    let coeffs, view =
      span t_extract (fun () ->
          let coeffs =
            Standardize.unstandardize_coeffs transform (Posterior.coefficients post)
          in
          let active = Array.copy post.Posterior.active in
          let view =
            {
              Cbmf.std = Standardize.params transform;
              active;
              mu =
                Mat.init (Array.length active) k (fun j s ->
                    Mat.get post.Posterior.mu active.(j) s);
              lambda = Array.map (fun j -> prior.Prior.lambda.(j)) active;
              r = Mat.copy prior.Prior.r;
              sigma0 = prior.Prior.sigma0;
              cov = post.Posterior.state_cov ();
            }
          in
          (coeffs, view))
    in
    let m = span t_of_fit (fun () -> Model.of_fit ~dict:(dict ctx) view) in
    let image = span t_encode (fun () -> Snapshot.encode m) in
    bytes := !bytes + String.length image;
    span t_load (fun () ->
        Wire.load fd ~name:(Cbmf_experiments.Workload.poi_name ctx.w poi) image);
    (coeffs, m, image)
  in
  let fits = Array.init (n_poi ctx) one in
  let wall = now () -. t0 in
  let s =
    {
      coeffs = Array.map (fun (c, _, _) -> c) fits;
      images = Array.map (fun (_, _, i) -> i) fits;
      served = (let _, m, _ = fits.(0) in m);
    }
  in
  let seconds =
    [
      ("montecarlo.generate_s", !t_mc);
      ("dictionary.design_s", !t_design);
      ("standardize.fit_s", !t_std);
      ("init.run_s", !t_init);
      ("em.run_s", !t_em);
      ("posterior.extract_s", !t_extract);
      ("model.of_fit_s", !t_of_fit);
      ("snapshot.encode_s", !t_encode);
      ("server.load_s", !t_load);
    ]
  in
  let derived =
    [
      ("posterior.compute_s", !t_post);
      ("em.mstep_s", !t_em -. !t_post);
    ]
  in
  let counts =
    [
      ("montecarlo.samples", Montecarlo.total_samples mc);
      ("montecarlo.dropped", Montecarlo.total_dropped mc);
      ("posterior.dual_calls", !dual);
      ("posterior.primal_calls", !primal);
      ("em.iterations", !em_iters);
      ("snapshot.bytes", !bytes);
    ]
  in
  (wall, s, seconds, derived, counts)
