(* Workload active-loop: Loop.run at its defaults (n0 = 4, 16 rounds,
   pool 16, resync every 4, EM <= 8 iterations) driven by
   Sim.of_synthetic.  It never runs Init; the linear algebra runs both as
   full refactorizations (Em, Update.create) and as rank-one writes
   (Update.append_round). *)

open Cbmf_linalg
open Cbmf_circuit
open Cbmf_core
open Cbmf_active
open Cbmf_serve
open Common

let n_test = 20

let spec ~seed ~iter =
  {
    Synthetic.default_spec with
    Synthetic.k = 16;
    d = 20;
    m = 41;
    rho = 0.9;
    seed = (seed * 1009) + iter;
  }

let prior0 (spec : Synthetic.spec) =
  Prior.create
    ~lambda:(Array.make spec.Synthetic.m 1.0)
    ~r:(Prior.r_of_r0 ~n_states:spec.Synthetic.k ~r0:0.5)
    ~sigma0:(Float.max spec.Synthetic.noise_sigma 0.05)

type shipped = { coeffs : Mat.t; prior : Prior.t; image : string; served : Model.t }

let fingerprint s =
  hash_floats
    [
      s.coeffs.Mat.data;
      s.prior.Prior.lambda;
      s.prior.Prior.r.Mat.data;
      [| s.prior.Prior.sigma0 |];
    ]
  ^ ":" ^ hash_string s.image

(* The loop's product as a serving model: its coefficients on its
   active set with identity standardization (the loop fits raw
   synthetic data), and the posterior covariance blocks of the final
   data under the final hyper-parameters. *)
let serving_model (gt : Synthetic.t) ~data ~(prior : Prior.t) ~coeffs ~active =
  let k = gt.Synthetic.spec.Synthetic.k in
  let a = Array.length active in
  let post = Posterior.compute data prior ~active in
  {
    Model.input_dim = gt.Synthetic.spec.Synthetic.d;
    n_states = k;
    terms = Array.map (fun j -> gt.Synthetic.terms.(j)) active;
    col_means = Mat.create k a;
    col_scales = Array.make a 1.0;
    y_means = Array.make k 0.0;
    y_scale = 1.0;
    mu = Mat.init a k (fun j s -> Mat.get coeffs s active.(j));
    lambda = Array.map (fun j -> prior.Prior.lambda.(j)) active;
    r = Mat.copy prior.Prior.r;
    sigma0 = prior.Prior.sigma0;
    cov = post.Posterior.state_cov ();
  }

let test_error (gt : Synthetic.t) coeffs =
  Cbmf_model.Metrics.coeffs_error_pooled ~coeffs
    (Synthetic.test_dataset gt ~n_per_state:n_test)

let run fd ~seed ~iter =
  let spec = spec ~seed ~iter in
  let gt = Synthetic.truth spec in
  let sim = Sim.of_synthetic gt and prior0 = prior0 spec in
  let t0 = now () in
  let r = Loop.run ~sim ~prior0 () in
  let served =
    serving_model gt ~data:r.Loop.data ~prior:r.Loop.prior ~coeffs:r.Loop.coeffs
      ~active:r.Loop.active
  in
  let image = Snapshot.encode served in
  Wire.load fd ~name:"loop" image;
  let wall = now () -. t0 in
  (wall, test_error gt r.Loop.coeffs,
   { coeffs = r.Loop.coeffs; prior = r.Loop.prior; image; served })

(* Loop.run replayed call by call through Sim / Stream / Acquire /
   Update / Em, each call wrapped in a span; Em.run gets a timed
   Posterior.compute on one workspace per EM run, as Em.run's default
   does. *)
let traced fd ~seed ~iter =
  let spec = spec ~seed ~iter in
  let gt = Synthetic.truth spec in
  let sim = Sim.of_synthetic gt and prior0 = prior0 spec in
  let config = Loop.default_config in
  let t_seed = ref 0.0 and t_stream = ref 0.0 and t_em = ref 0.0 in
  let t_post = ref 0.0 and t_create = ref 0.0 and t_append = ref 0.0 in
  let t_nlml = ref 0.0 and t_cand = ref 0.0 and t_sim = ref 0.0 in
  let t_select = ref 0.0 and t_extract = ref 0.0 and t_encode = ref 0.0 in
  let t_load = ref 0.0 in
  let dual = ref 0 and primal = ref 0 and em_iters = ref 0 in
  let scored = ref 0 in
  let t0 = now () in
  let k = sim.Sim.n_states in
  let seed_data =
    span t_seed (fun () -> Sim.seed_dataset sim ~n0:config.Loop.n0)
  in
  let stream = span t_stream (fun () -> Stream.create seed_data) in
  let fit ?init_hypers () =
    let ws = Posterior.make_workspace () in
    let posterior ?need_sigma d prior ~active =
      let p =
        span t_post (fun () -> Posterior.compute ?need_sigma ~ws d prior ~active)
      in
      incr (match p.Posterior.path with `Dual -> dual | `Primal -> primal);
      p
    in
    let ((_, _, trace) as res) =
      span t_em (fun () ->
          Em.run ~config:config.Loop.em ~posterior ?init_hypers
            (Stream.dataset stream) prior0)
    in
    em_iters := !em_iters + trace.Em.iterations;
    res
  in
  let positive_active (prior : Prior.t) (post : Posterior.t) =
    Array.of_seq
      (Seq.filter
         (fun j -> prior.Prior.lambda.(j) > 0.0)
         (Array.to_seq post.Posterior.active))
  in
  let create prior post =
    span t_create (fun () ->
        Update.create (Stream.dataset stream) prior
          ~active:(positive_active prior post))
  in
  let prior, post, _ = fit () in
  let prior = ref prior in
  let upd = ref (create !prior post) in
  for round = 1 to config.Loop.rounds do
    let xs, rows =
      span t_cand (fun () ->
          let xs = sim.Sim.candidates ~round ~n:config.Loop.pool_size in
          (xs, Array.map sim.Sim.basis_row xs))
    in
    let choice, _ =
      span t_select (fun () ->
          Acquire.select !upd ~policy:config.Loop.policy ~round
            ~cost:sim.Sim.cost ~rows)
    in
    scored := !scored + (k * Array.length rows);
    let idx = Stream.n_per_state stream in
    let chosen_rows = Array.init k (fun s -> rows.(choice.(s))) in
    let ys =
      span t_sim (fun () ->
          Array.init k (fun s ->
              sim.Sim.simulate ~state:s ~index:idx xs.(choice.(s))))
    in
    span t_stream (fun () -> Stream.append stream ~rows:chosen_rows ~ys);
    span t_append (fun () -> Update.append_round !upd ~rows:chosen_rows ~ys);
    if config.Loop.resync_every > 0 && round mod config.Loop.resync_every = 0
    then begin
      let prior', post', _ = fit ~init_hypers:!prior () in
      prior := prior';
      upd := create !prior post'
    end;
    span t_nlml (fun () -> ignore (Update.nlml !upd))
  done;
  let coeffs = span t_nlml (fun () -> Update.coefficients !upd) in
  let served =
    span t_extract (fun () ->
        serving_model gt ~data:(Stream.dataset stream) ~prior:!prior ~coeffs
          ~active:(Update.active !upd))
  in
  let image = span t_encode (fun () -> Snapshot.encode served) in
  span t_load (fun () -> Wire.load fd ~name:"loop" image);
  let wall = now () -. t0 in
  let seconds =
    [
      ("sim.seed_dataset_s", !t_seed);
      ("sim.candidates_s", !t_cand);
      ("sim.simulate_s", !t_sim);
      ("stream.append_s", !t_stream);
      ("em.run_s", !t_em);
      ("update.create_s", !t_create);
      ("update.append_s", !t_append);
      ("update.solve_s", !t_nlml);
      ("acquire.select_s", !t_select);
      ("posterior.extract_s", !t_extract);
      ("snapshot.encode_s", !t_encode);
      ("server.load_s", !t_load);
    ]
  in
  let derived =
    [ ("posterior.compute_s", !t_post); ("em.mstep_s", !t_em -. !t_post) ]
  in
  let counts =
    [
      ("posterior.dual_calls", !dual);
      ("posterior.primal_calls", !primal);
      ("em.iterations", !em_iters);
      ("acquire.rows_scored", !scored);
      ("snapshot.bytes", String.length image);
    ]
  in
  (wall, { coeffs; prior = !prior; image; served }, seconds, derived, counts)
