(* Fault taxonomy, deterministic injection, and self-healing pipelines.

   One property per injected fault class: with injection armed at a
   named site, the EM / Monte-Carlo pipelines must complete without
   raising, produce finite results, record the recovery in the run's
   [Diag], and — because every injection decision is a pure hash of
   (seed, site, scope, ordinal) — behave bit-identically at 1, 2 and 4
   pool domains. *)

open Cbmf_linalg
open Cbmf_model
open Cbmf_core
open Cbmf_robust
open Helpers

let with_injection ?seed ?prob ~sites f =
  Inject.arm ?seed ?prob ~sites ();
  Fun.protect ~finally:Inject.disarm f

(* --- Fault ---------------------------------------------------------- *)

let test_fault_strings () =
  let f1 = Fault.Not_pd { site = "chol.factorize"; dim = 5; tries = 3 } in
  let f2 = Fault.Em_divergence { iteration = 4; nlml_prev = 1.0; nlml = 9.0 } in
  let s1 = Fault.to_string f1 in
  check_true "renders site" (String.length s1 > 0);
  check_true "class names distinct"
    (Fault.class_name (Fault.class_of f1) <> Fault.class_name (Fault.class_of f2));
  check_int "total order reflexive" 0 (Fault.compare f1 f1);
  check_true "site of divergence" (String.length (Fault.site f2) > 0);
  (* Identical faults must render identically (the sort key for
     deterministic reports). *)
  let f1' = Fault.Not_pd { site = "chol.factorize"; dim = 5; tries = 3 } in
  check_int "equal faults compare equal" 0 (Fault.compare f1 f1')

let test_diag_basic () =
  let d = Diag.create () in
  check_true "fresh empty" (Diag.is_empty d);
  let f = Fault.Singular { site = "mna.solve"; dim = 7 } in
  Diag.record d f;
  Diag.record d f;
  Diag.record d (Fault.Non_finite { site = "mc.sample"; what = "poi"; index = 2 });
  check_int "count" 3 (Diag.count d);
  check_int "count_class singular" 2 (Diag.count_class d Fault.C_singular);
  check_int "count_class non_finite" 1 (Diag.count_class d Fault.C_non_finite);
  check_int "faults sorted & complete" 3 (Array.length (Diag.faults d));
  let sorted = Diag.faults d in
  check_true "sorted order"
    (Array.for_all Fun.id
       (Array.init (Array.length sorted - 1) (fun i ->
            Fault.compare sorted.(i) sorted.(i + 1) <= 0)));
  check_true "summary mentions repeat"
    (String.length (Diag.summary d) > 0);
  Diag.clear d;
  check_true "cleared" (Diag.is_empty d)

let test_diag_ambient () =
  (* Without an installed recorder, [note] is a no-op... *)
  Diag.note (Fault.Singular { site = "nowhere"; dim = 1 });
  let d = Diag.create () in
  Diag.with_current d (fun () ->
      Diag.note (Fault.Singular { site = "somewhere"; dim = 1 });
      (* ...and nesting restores the outer recorder on exit. *)
      let inner = Diag.create () in
      Diag.with_current inner (fun () ->
          Diag.note (Fault.Singular { site = "inner"; dim = 2 }));
      check_int "inner captured separately" 1 (Diag.count inner);
      Diag.note (Fault.Singular { site = "somewhere"; dim = 3 }));
  check_int "outer saw only its own" 2 (Diag.count d)

(* --- Inject --------------------------------------------------------- *)

let decisions ~seed ~prob ~site n =
  with_injection ~seed ~prob ~sites:[ site ] (fun () ->
      Array.init n (fun i ->
          Inject.with_scope ~key:i (fun () -> Inject.fire ~site)))

let test_inject_deterministic () =
  check_true "disarmed by default" (not (Inject.armed ()));
  check_true "disarmed never fires" (not (Inject.fire ~site:"chol.factorize"));
  let a = decisions ~seed:5 ~prob:0.5 ~site:"x" 64 in
  let b = decisions ~seed:5 ~prob:0.5 ~site:"x" 64 in
  check_true "same seed reproduces exactly" (a = b);
  let c = decisions ~seed:6 ~prob:0.5 ~site:"x" 64 in
  check_true "different seed differs" (a <> c);
  check_true "fires sometimes" (Array.exists Fun.id a);
  check_true "not always" (not (Array.for_all Fun.id a));
  (* An unarmed site never fires even while the harness is armed. *)
  with_injection ~seed:5 ~prob:1.0 ~sites:[ "x" ] (fun () ->
      check_true "other site silent" (not (Inject.fire ~site:"y")))

let test_inject_scope_restores () =
  (* Scoped work interleaved on the same domain must not perturb the
     enclosing decision stream. *)
  let run interleave =
    with_injection ~seed:11 ~prob:0.5 ~sites:[ "x" ] (fun () ->
        Inject.with_scope ~key:0 (fun () ->
            Array.init 8 (fun _ ->
                if interleave then
                  Inject.with_scope ~key:99 (fun () ->
                      ignore (Inject.fire ~site:"x"));
                Inject.fire ~site:"x")))
  in
  check_true "interleaved scopes transparent" (run false = run true)

(* --- Chol retry ----------------------------------------------------- *)

let test_chol_retry_clean () =
  let a = random_spd 6 in
  let f = Chol.factorize_with_retry a in
  check_float "no jitter on healthy matrix" 0.0 (Chol.jitter f)

let test_chol_retry_repairs_and_records () =
  (* Rank-deficient PSD: [1 1; 1 1] fails exact Cholesky but a tiny
     diagonal boost repairs it.  The recovery must land in the ambient
     recorder and the applied jitter must be exposed. *)
  let a = Mat.init 2 2 (fun _ _ -> 1.0) in
  let d = Diag.create () in
  let f = Diag.with_current d (fun () -> Chol.factorize_with_retry a) in
  check_true "jitter applied" (Chol.jitter f > 0.0);
  check_int "recovery recorded" 1 (Diag.count_class d Fault.C_not_pd)

let test_chol_retry_cap_raises_typed () =
  (* Indefinite [1 2; 2 1] (eigenvalues 3, −1): the jitter cap — 1e-2 of
     the mean diagonal — is far below the 1.0 boost a repair would
     need, so the retry loop must give up with a typed fault rather
     than jitter the matrix beyond recognition. *)
  let a = Mat.init 2 2 (fun i j -> if i = j then 1.0 else 2.0) in
  match Chol.factorize_with_retry a with
  | _ -> Alcotest.fail "expected Fault.Error (Not_pd _)"
  | exception Fault.Error (Fault.Not_pd { site; dim; tries }) ->
      check_true "site" (site = "chol.factorize");
      check_int "dim" 2 dim;
      check_true "tries counted" (tries > 0)

let test_chol_injection_site () =
  (* With the site armed at probability 1 every attempt fails, so even a
     perfectly healthy matrix must exhaust retries into a typed fault. *)
  let a = random_spd 4 in
  with_injection ~seed:1 ~prob:1.0 ~sites:[ "chol.factorize" ] (fun () ->
      match Chol.factorize_with_retry a with
      | _ -> Alcotest.fail "expected injected failure"
      | exception Fault.Error (Fault.Not_pd _) -> ());
  (* Disarmed again: same matrix factorizes with zero jitter. *)
  check_float "clean after disarm" 0.0 (Chol.jitter (Chol.factorize_with_retry a))

(* --- MNA validation ------------------------------------------------- *)

let test_mna_invalid_args () =
  let mk () =
    let ckt = Cbmf_circuit.Mna.create () in
    let n1 = Cbmf_circuit.Mna.fresh_node ckt "a" in
    (ckt, n1)
  in
  check_raises_invalid "negative resistance" (fun () ->
      let ckt, n1 = mk () in
      Cbmf_circuit.Mna.resistor ckt 0 n1 (-50.0));
  check_raises_invalid "NaN resistance" (fun () ->
      let ckt, n1 = mk () in
      Cbmf_circuit.Mna.resistor ckt 0 n1 Float.nan);
  check_raises_invalid "out-of-range node" (fun () ->
      let ckt, _ = mk () in
      Cbmf_circuit.Mna.resistor ckt 0 99 50.0);
  check_raises_invalid "negative capacitance" (fun () ->
      let ckt, n1 = mk () in
      Cbmf_circuit.Mna.capacitor ckt 0 n1 (-1e-12));
  check_raises_invalid "infinite gm" (fun () ->
      let ckt, n1 = mk () in
      Cbmf_circuit.Mna.vccs ckt ~out_pos:0 ~out_neg:n1 ~ctrl_pos:n1 ~ctrl_neg:0
        ~gm:Float.infinity);
  check_raises_invalid "zero frequency" (fun () ->
      let ckt, n1 = mk () in
      Cbmf_circuit.Mna.resistor ckt 0 n1 50.0;
      ignore (Cbmf_circuit.Mna.ac ckt ~freq:0.0))

(* --- Pool ----------------------------------------------------------- *)

let test_pool_shutdown_idempotent () =
  let p = Cbmf_parallel.Pool.create 2 in
  Cbmf_parallel.Pool.parallel_for p ~n:8 (fun _ -> ());
  Cbmf_parallel.Pool.shutdown p;
  Cbmf_parallel.Pool.shutdown p (* second call must be a no-op *)

let test_pool_worker_exception_identity () =
  let p = Cbmf_parallel.Pool.create 2 in
  Fun.protect ~finally:(fun () -> Cbmf_parallel.Pool.shutdown p) @@ fun () ->
  match Cbmf_parallel.Pool.parallel_for p ~n:16 (fun i ->
      if i = 7 then failwith "synthetic worker fault")
  with
  | () -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg ->
      check_true "exception payload preserved" (msg = "synthetic worker fault")

(* --- Dataset validation --------------------------------------------- *)

let test_dataset_validate () =
  let d = Test_core.planted ~k:4 ~n:6 ~m:8 () in
  (match Dataset.validate d with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "clean dataset must validate");
  Mat.set d.Dataset.design.(1) 2 3 Float.nan;
  d.Dataset.response.(3).(0) <- Float.infinity;
  (match Dataset.validate d with
  | Ok () -> Alcotest.fail "NaN dataset must be rejected"
  | Error r ->
      check_int "two invalid rows" 2 (Array.length r.Dataset.invalid);
      let a = r.Dataset.invalid.(0) and b = r.Dataset.invalid.(1) in
      check_int "design state" 1 a.Dataset.state;
      check_int "design row" 2 a.Dataset.row;
      check_int "design col" 3 a.Dataset.col;
      check_int "response state" 3 b.Dataset.state;
      check_int "response row" 0 b.Dataset.row;
      check_int "response marker" (-1) b.Dataset.col);
  (match Dataset.validate_exn d with
  | () -> Alcotest.fail "validate_exn must raise"
  | exception Fault.Error (Fault.Non_finite _) -> ());
  (* Em.run must reject the poisoned dataset up front, as a typed
     fault — not crash in the middle of a factorization. *)
  let prior =
    Prior.create
      ~lambda:(Vec.make d.Dataset.n_basis 0.5)
      ~r:(Prior.r_of_r0 ~n_states:d.Dataset.n_states ~r0:0.5)
      ~sigma0:0.3
  in
  match Em.run d prior with
  | _ -> Alcotest.fail "Em.run must reject NaN data"
  | exception Fault.Error (Fault.Non_finite _) -> ()

(* --- Self-healing EM under injected faults -------------------------- *)

let em_problem () =
  let std = Test_core.std_planted () in
  (std, Test_core.uniform_prior std)

let check_em_healthy what (prior, post, trace) =
  check_true (what ^ ": lambda finite")
    (Array.for_all Float.is_finite prior.Prior.lambda);
  check_true (what ^ ": R finite")
    (Array.for_all Float.is_finite prior.Prior.r.Mat.data);
  check_true (what ^ ": sigma0 finite") (Float.is_finite prior.Prior.sigma0);
  check_true (what ^ ": nlml finite") (Float.is_finite post.Posterior.nlml);
  check_true (what ^ ": iterations ran") (trace.Em.iterations >= 1)

let em_fit_hash (prior, _post, trace) =
  Int64.logxor
    (hash_floats prior.Prior.lambda)
    (Int64.logxor
       (hash_floats prior.Prior.r.Mat.data)
       (Int64.logxor
          (hash_floats [| prior.Prior.sigma0 |])
          (Int64.of_int (Hashtbl.hash (Diag.summary trace.Em.diag)))))

let em_under_injection ~sites ~seed ~prob () =
  let std, prior0 = em_problem () in
  with_injection ~seed ~prob ~sites (fun () -> Em.run std prior0)

let test_em_chol_injection () =
  let result = em_under_injection ~sites:[ "chol.factorize" ] ~seed:1 ~prob:0.3 () in
  check_em_healthy "chol inject" result;
  let _, _, trace = result in
  check_true "Not_pd recovery recorded"
    (Diag.count_class trace.Em.diag Fault.C_not_pd > 0)

let test_em_posterior_injection () =
  let result =
    em_under_injection ~sites:[ "posterior.compute" ] ~seed:2 ~prob:0.2 ()
  in
  check_em_healthy "posterior inject" result;
  let _, _, trace = result in
  check_true "Non_finite recovery recorded"
    (Diag.count_class trace.Em.diag Fault.C_non_finite > 0);
  check_true "recoveries counted" (trace.Em.recoveries > 0)

let test_em_injection_domain_invariance () =
  (* The whole self-healing story — which faults fire, which fallbacks
     run, what the repaired numbers are — must be bit-identical at any
     domain count. *)
  let hashes =
    List.map
      (fun domains ->
        Cbmf_parallel.Pool.set_default_size domains;
        em_fit_hash
          (em_under_injection ~sites:[ "chol.factorize" ] ~seed:1 ~prob:0.3 ()))
      [ 1; 2; 4 ]
  in
  Cbmf_parallel.Pool.set_default_size (Cbmf_parallel.Pool.env_domains ());
  match hashes with
  | [ h1; h2; h4 ] ->
      check_true "1 vs 2 domains" (Int64.equal h1 h2);
      check_true "1 vs 4 domains" (Int64.equal h1 h4)
  | _ -> assert false

let test_em_divergence_rollback () =
  let std, prior0 = em_problem () in
  let calls = ref 0 in
  let ws = Posterior.make_workspace () in
  let posterior ?(need_sigma = true) d prior ~active =
    incr calls;
    let t = Posterior.compute ~need_sigma ~ws d prior ~active in
    (* Doctor one E-step to report a wildly worse objective: the
       watchdog must flag it and roll back to the checkpoint. *)
    if !calls = 3 then { t with Posterior.nlml = abs_float t.Posterior.nlml +. 1e4 }
    else t
  in
  let result = Em.run ~posterior std prior0 in
  check_em_healthy "divergence" result;
  let _, _, trace = result in
  check_true "divergence recorded"
    (Diag.count_class trace.Em.diag Fault.C_em_divergence > 0);
  check_true "rollback counted" (trace.Em.recoveries > 0)

let test_em_worker_error_recovery () =
  let std, prior0 = em_problem () in
  let calls = ref 0 in
  let ws = Posterior.make_workspace () in
  let posterior ?(need_sigma = true) d prior ~active =
    incr calls;
    if !calls = 2 then failwith "synthetic solver crash";
    Posterior.compute ~need_sigma ~ws d prior ~active
  in
  let result = Em.run ~posterior std prior0 in
  check_em_healthy "worker error" result;
  let _, _, trace = result in
  check_true "Worker_error recorded"
    (Diag.count_class trace.Em.diag Fault.C_worker_error > 0)

let test_em_clean_run_empty_diag () =
  let std, prior0 = em_problem () in
  let _, _, trace = Em.run std prior0 in
  check_true "no faults on a clean run" (Diag.is_empty trace.Em.diag);
  check_int "no recoveries on a clean run" 0 trace.Em.recoveries

(* --- Resilient Monte Carlo ------------------------------------------ *)

let mc_under_injection ~sites ~seed ~prob () =
  let tb = Cbmf_circuit.Lna.create () in
  let rng = Cbmf_prob.Rng.create 42 in
  let d = Diag.create () in
  let mc =
    with_injection ~seed ~prob ~sites (fun () ->
        Cbmf_circuit.Montecarlo.generate ~diag:d tb rng ~n_per_state:3)
  in
  (mc, d)

let mc_hash (mc : Cbmf_circuit.Montecarlo.t) d =
  let xs = Array.map (fun s -> s.Cbmf_circuit.Montecarlo.xs) mc.Cbmf_circuit.Montecarlo.states in
  let ys = Array.map (fun s -> s.Cbmf_circuit.Montecarlo.ys) mc.Cbmf_circuit.Montecarlo.states in
  Int64.logxor
    (Int64.logxor (hash_mats xs) (Int64.mul 0x9E3779B97F4A7C15L (hash_mats ys)))
    (Int64.of_int
       (Hashtbl.hash (Diag.summary d, mc.Cbmf_circuit.Montecarlo.dropped)))

let check_mc_finite what (mc : Cbmf_circuit.Montecarlo.t) =
  Array.iter
    (fun s ->
      check_true (what ^ ": ys finite")
        (Array.for_all Float.is_finite s.Cbmf_circuit.Montecarlo.ys.Mat.data);
      check_true (what ^ ": xs finite")
        (Array.for_all Float.is_finite s.Cbmf_circuit.Montecarlo.xs.Mat.data))
    mc.Cbmf_circuit.Montecarlo.states

let test_mc_mna_injection () =
  let mc, d = mc_under_injection ~sites:[ "mna.solve" ] ~seed:3 ~prob:0.15 () in
  check_mc_finite "mna inject" mc;
  check_true "Singular faults recorded" (Diag.count_class d Fault.C_singular > 0);
  check_true "kept a usable sample set"
    (mc.Cbmf_circuit.Montecarlo.n_per_state >= 1)

let test_mc_sample_injection_domain_invariance () =
  let run domains =
    Cbmf_parallel.Pool.set_default_size domains;
    let mc, d = mc_under_injection ~sites:[ "mc.sample" ] ~seed:4 ~prob:0.3 () in
    check_mc_finite "mc inject" mc;
    (mc_hash mc d, Diag.count_class d Fault.C_non_finite)
  in
  let results = List.map run [ 1; 2; 4 ] in
  Cbmf_parallel.Pool.set_default_size (Cbmf_parallel.Pool.env_domains ());
  match results with
  | [ (h1, nf1); (h2, _); (h4, _) ] ->
      check_true "injected NaN PoIs recorded" (nf1 > 0);
      check_true "1 vs 2 domains" (Int64.equal h1 h2);
      check_true "1 vs 4 domains" (Int64.equal h1 h4)
  | _ -> assert false

let test_mc_drop_accounting () =
  (* Probability 1 on mc.sample: every attempt of every sample fails, so
     the generator must give up with a typed Sim_failure — not loop or
     return garbage. *)
  let tb = Cbmf_circuit.Lna.create () in
  let rng = Cbmf_prob.Rng.create 42 in
  let d = Diag.create () in
  (match
     with_injection ~seed:5 ~prob:1.0 ~sites:[ "mc.sample" ] (fun () ->
         Cbmf_circuit.Montecarlo.generate ~diag:d ~max_retries:1 tb rng
           ~n_per_state:2)
   with
  | _ -> Alcotest.fail "expected total failure to raise"
  | exception Fault.Error (Fault.Sim_failure _) -> ());
  check_true "every drop recorded" (Diag.count_class d Fault.C_sim_failure > 0)

(* --- Json ------------------------------------------------------------ *)

let test_json_non_finite () =
  let r f = Json.to_string (Json.Float f) in
  check_true "inf" (String.equal {|"inf"|} (r Float.infinity));
  check_true "-inf" (String.equal {|"-inf"|} (r Float.neg_infinity));
  check_true "nan" (String.equal {|"nan"|} (r Float.nan));
  check_true "integral below 1e15" (String.equal "2000" (r 2000.0));
  check_true "negative integral" (String.equal "-7" (r (-7.0)))

let test_json_escaping () =
  check_true "quote, backslash, controls"
    (String.equal {|"a\"b\\c\n\t\u0001"|}
       (Json.to_string (Json.String "a\"b\\c\n\t\001")));
  check_true "plain ASCII as %S"
    (String.equal (Printf.sprintf "%S" "p99_us") (Json.to_string (Json.String "p99_us")))

(* Every finite float reads back to the same bits. *)
let prop_json_float_roundtrip bits =
  let f = Int64.float_of_bits bits in
  (not (Float.is_finite f))
  || Int64.equal (Int64.bits_of_float (float_of_string (Json.to_string (Json.Float f))))
       (Int64.bits_of_float f)

let test_json_float_edges () =
  List.iter
    (fun f ->
      check_true (Printf.sprintf "%h reads back" f) (prop_json_float_roundtrip (Int64.bits_of_float f)))
    [ 0.1; 1.0 /. 3.0; 1e15; 1e15 +. 1.0; 5e-324; Float.max_float; -2.5e-8; 0.0; -0.0 ]

let test_json_nested () =
  check_true "nested lists/objects, member order kept"
    (String.equal {|{"b":[1,[true,"x"],{}],"a":{"c":0.5,"d":[]}}|}
       (Json.to_string
          (Json.Obj
             [ ("b", Json.List [ Json.Int 1; Json.List [ Json.Bool true; Json.String "x" ]; Json.Obj [] ]);
               ("a", Json.Obj [ ("c", Json.Float 0.5); ("d", Json.List []) ]) ])))

let suite =
  [ ( "robust.taxonomy",
      [ case "fault rendering and order" test_fault_strings;
        case "diag recorder" test_diag_basic;
        case "ambient recorder" test_diag_ambient ] );
    ( "robust.json",
      [ case "non-finite and integral floats" test_json_non_finite;
        case "string escaping" test_json_escaping;
        qcase ~count:2000 "finite floats read back bit-exact"
          QCheck2.Gen.int64 prop_json_float_roundtrip;
        case "float read-back edge cases" test_json_float_edges;
        case "nested lists and objects" test_json_nested ] );
    ( "robust.inject",
      [ case "seeded determinism" test_inject_deterministic;
        case "scope save/restore" test_inject_scope_restores ] );
    ( "robust.chol",
      [ case "clean factorization, zero jitter" test_chol_retry_clean;
        case "repair recorded with jitter" test_chol_retry_repairs_and_records;
        case "jitter cap raises typed fault" test_chol_retry_cap_raises_typed;
        case "injection site honored" test_chol_injection_site ] );
    ( "robust.mna",
      [ case "invalid_arg validation" test_mna_invalid_args ] );
    ( "robust.pool",
      [ case "idempotent shutdown" test_pool_shutdown_idempotent;
        case "worker exception identity" test_pool_worker_exception_identity ] );
    ( "robust.dataset",
      [ case "validate structured report" test_dataset_validate ] );
    ( "robust.em",
      [ case "clean run records nothing" test_em_clean_run_empty_diag;
        case "survives chol faults" test_em_chol_injection;
        case "survives posterior faults" test_em_posterior_injection;
        slow_case "recovery domain-invariant (1/2/4)"
          test_em_injection_domain_invariance;
        case "divergence rollback" test_em_divergence_rollback;
        case "worker error recovery" test_em_worker_error_recovery ] );
    ( "robust.montecarlo",
      [ case "survives solver faults" test_mc_mna_injection;
        slow_case "retry stream domain-invariant (1/2/4)"
          test_mc_sample_injection_domain_invariance;
        case "total failure raises typed fault" test_mc_drop_accounting ] ) ]
