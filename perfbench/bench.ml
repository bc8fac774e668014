(* Benchmark binary.  run.py builds it and calls its three modes:

     bench.exe setup WORKLOAD SOCKET
       build the workload's context, start a server, answer one Ping,
       print "ready" (run.py times this, spawn to "ready")
     bench.exe server SOCKET
       the server child the workload talks to
     bench.exe run WORKLOAD SOCKET SEED SECONDS TRACE [baseline]
       the measurement; prints one JSON line of raw figures

   TRACE 0 gives the end-to-end figures; TRACE 1 replays one iteration
   layer by layer.  "baseline" (run under CBMF_DOMAINS=1) replays only
   the traced iteration, for the single-domain split and the cross-
   domain bit-identity check. *)

open Common

type fit = {
  run : Unix.file_descr -> seed:int -> iter:int -> float * float * string * Cbmf_serve.Model.t;
  traced :
    Unix.file_descr ->
    seed:int ->
    iter:int ->
    float
    * string
    * Cbmf_serve.Model.t
    * (string * float) list
    * (string * float) list
    * (string * int) list;
  served_name : string;
}

let lna () =
  let ctx = Lna_fit.setup () in
  {
    run =
      (fun fd ~seed ~iter ->
        let w, e, s = Lna_fit.run fd ctx ~seed ~iter in
        (w, e, Lna_fit.fingerprint s, s.Lna_fit.served));
    traced =
      (fun fd ~seed ~iter ->
        let w, s, secs, derived, counts = Lna_fit.traced fd ctx ~seed ~iter in
        (w, Lna_fit.fingerprint s, s.Lna_fit.served, secs, derived, counts));
    served_name = "NF";
  }

let active () =
  {
    run =
      (fun fd ~seed ~iter ->
        let w, e, s = Active_loop.run fd ~seed ~iter in
        (w, e, Active_loop.fingerprint s, s.Active_loop.served));
    traced =
      (fun fd ~seed ~iter ->
        let w, s, secs, derived, counts = Active_loop.traced fd ~seed ~iter in
        (w, Active_loop.fingerprint s, s.Active_loop.served, secs, derived, counts));
    served_name = "loop";
  }

let fit_of = function
  | "lna-fit" -> Some lna
  | "active-loop" -> Some active
  | _ -> None

let min_iters = 3

(* Requests per class in the probe that follows each fit iteration. *)
let probe_requests = 340

(* The closed-loop probe of a shipped model: 64-point (wide) and
   8-point (dense) requests on standard-normal inputs. *)
let probe fd f ~seed (served : Cbmf_serve.Model.t) =
  let rng = Cbmf_prob.Rng.create seed in
  let pool n =
    Array.init 8 (fun _ -> Wire.random_input rng ~model_name:f.served_name served ~n)
  in
  let wide = pool 64 and dense = pool 8 in
  (Wire.closed_loop fd ~wide ~dense ~n:probe_requests, wide, dense)

let probe_fields (ps : Wire.probe list) =
  let all g = List.concat_map g ps in
  let outcomes = Wire.outcomes () in
  List.iter (fun (p : Wire.probe) -> Wire.merge ~into:outcomes p.Wire.probe_outcomes) ps;
  let secs = List.fold_left (fun acc (p : Wire.probe) -> acc +. p.Wire.probe_s) 0.0 ps in
  [
    ("wide_ms", Wire.latency_json (all (fun p -> p.Wire.wide_ms)));
    ("dense_ms", Wire.latency_json (all (fun p -> p.Wire.dense_ms)));
    ("max_rps", F (float_of_int (Wire.attempted outcomes) /. secs));
    ("outcomes", Wire.outcomes_json outcomes);
  ]

(* Fit iterations until [seconds] would be overrun (at least
   [min_iters]); after each one, a probe of the model it shipped, so the
   serving figures are spread over the whole run. *)
let fit_untraced f fd ~seed ~seconds =
  let t0 = now () in
  let rec loop iter acc =
    let wall, err, _, served = f.run fd ~seed ~iter in
    let p, _, _ = probe fd f ~seed:(seed + iter) served in
    let acc = (wall, err, p) :: acc in
    if iter + 1 < min_iters || now () -. t0 +. wall <= seconds then
      loop (iter + 1) acc
    else List.rev acc
  in
  let iters = loop 0 [] in
  [
    ("model_s", floats (List.map (fun (w, _, _) -> w) iters));
    ("test_rel_err", floats (List.map (fun (_, e, _) -> e) iters));
  ]
  @ probe_fields (List.map (fun (_, _, p) -> p) iters)

(* The replay's wall time, the part of it no span covers, and every
   span. *)
let layer_fields ~wall secs derived =
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 secs in
  ("layers.wall_s", wall) :: ("layers.unaccounted_s", wall -. sum) :: (secs @ derived)

let fit_traced f fd ~seed ~baseline =
  if baseline then begin
    let wall, fp, _, secs, derived, counts = f.traced fd ~seed ~iter:0 in
    let layers = layer_fields ~wall secs derived in
    [
      ("fingerprint_traced", S fp);
      ("layers", O (List.map (fun (k, v) -> (k, F v)) layers));
      ("counts", O (List.map (fun (k, v) -> (k, I v)) counts));
    ]
  end
  else begin
    let wall_u, _, fp_u, _ = f.run fd ~seed ~iter:0 in
    let wall, fp, served, secs, derived, counts = f.traced fd ~seed ~iter:0 in
    let layers = layer_fields ~wall secs derived in
    let p, wide, dense = probe fd f ~seed served in
    let off_w, bytes_w = Wire.offline ~cls:"wide" served wide.(0) in
    let off_d, bytes_d = Wire.offline ~cls:"dense" served dense.(0) in
    let layers =
      layers @ [ ("trace.overhead", wall /. wall_u) ] @ off_w @ off_d
    in
    [
      ("fingerprint_untraced", S fp_u);
      ("fingerprint_traced", S fp);
      ("layers", O (List.map (fun (k, v) -> (k, F v)) layers));
      ("counts", O (List.map (fun (k, v) -> (k, I v)) (counts @ bytes_w @ bytes_d)));
      ("stats", Raw (Wire.stats_json fd));
    ]
    @ probe_fields [ p ]
  end

let run_main workload sock seed seconds trace baseline =
  let fields =
    match fit_of workload with
    | Some mk ->
        let f = mk () in
        let fd = Wire.connect sock in
        let fields =
          if trace then fit_traced f fd ~seed ~baseline
          else fit_untraced f fd ~seed ~seconds
        in
        Unix.close fd;
        fields
    | None when workload = "serve-mixed" ->
        Serve_mixed.run ~sock ~seed ~seconds ~trace
    | None -> failwith ("unknown workload " ^ workload)
  in
  let rss =
    match vm_hwm_mb "self" with Some mb -> F mb | None -> F Float.nan
  in
  emit
    (O
       ((("provenance", provenance ~workload ~seed) :: ("rss_mb", rss) :: fields)))

let setup_main workload sock =
  (match fit_of workload with
  | Some mk -> ignore (mk ())
  | None when workload = "serve-mixed" -> ()
  | None -> failwith ("unknown workload " ^ workload));
  ignore (Cbmf_parallel.Pool.default ());
  let server = Cbmf_serve.Server.start (Unix.ADDR_UNIX sock) in
  let fd = Wire.connect sock in
  Wire.ping fd;
  print_endline "ready";
  Unix.close fd;
  Cbmf_serve.Server.stop server

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "server"; sock ] -> Wire.server_main sock
  | [ "setup"; workload; sock ] -> setup_main workload sock
  | "run" :: workload :: sock :: seed :: seconds :: trace :: rest ->
      run_main workload sock (int_of_string seed) (float_of_string seconds)
        (trace = "1") (rest = [ "baseline" ])
  | _ ->
      prerr_endline
        "usage: bench.exe (server SOCKET | setup WORKLOAD SOCKET | run \
         WORKLOAD SOCKET SEED SECONDS TRACE [baseline])";
      exit 2
