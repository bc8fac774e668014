(* Workload serve-mixed: a server holding two Model.of_synthetic
   snapshots under open-loop Poisson load at fixed absolute rates.  Each
   arrival is one of two classes, 50/50 from the seed:
   - wide:  K = 32, d = 1264, 6 active terms, 64-point requests (codec
     and input copy dominate);
   - dense: K = 32, d = 100, 150 active terms, 8-point requests (engine
     compute dominates).
   One generator thread drives 2 persistent connections with select and
   times every request from the instant it was due. *)

open Cbmf_circuit
open Cbmf_serve
open Common

type cls = { name : string; spec : Synthetic.spec; points : int }

let classes =
  let base = Synthetic.default_spec in
  [|
    {
      name = "wide";
      spec =
        { base with Synthetic.k = 32; d = 1264; m = 1265;
          active_per_state = 6; rho = 0.9; seed = 1 };
      points = 64;
    };
    {
      name = "dense";
      spec =
        { base with Synthetic.k = 32; d = 100; m = 201;
          active_per_state = 150; rho = 0.9; seed = 2 };
      points = 8;
    };
  |]

(* Frozen load parameters.  The ladder is absolute: it is never
   calibrated to the host, so a faster server passes more steps rather
   than being offered more load. *)
let base_rps = 200.0
let ladder = Array.init 25 (fun i -> 400.0 *. (2.0 ** (float_of_int i /. 8.0)))
let p99_limit_ms = 100.0
let late_bound_ms = 10.0
let reply_timeout_s = 5.0
let n_conns = 2
let pool_inputs = 16

(* Build both models from their specs, encode them and load them into
   the server: inputs -> shipped models.  The models are fixed; the seed
   draws the load (request inputs, arrivals, classes, connections). *)
let ship fd =
  Array.map
    (fun c ->
      let gt = Synthetic.truth c.spec in
      let m = Model.of_synthetic gt in
      Wire.load fd ~name:c.name (Snapshot.encode m);
      (gt, m))
    classes

let inputs shipped ~seed =
  Array.mapi
    (fun ci (gt, m) ->
      Array.init pool_inputs (fun i ->
          let xs, states =
            Synthetic.batch_inputs gt ~salt:((seed * pool_inputs) + i)
              ~n:classes.(ci).points
          in
          Wire.input ~model_name:classes.(ci).name m ~states ~xs))
    shipped

(* Served means against held-out noisy responses of the ground truth
   (noise streams past any the specs' datasets use). *)
let test_rel_err shipped pools =
  let pairs =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun ci pool ->
              let gt, _ = shipped.(ci) in
              Array.map
                (fun (i : Wire.input) ->
                  let y =
                    Array.mapi
                      (fun p s ->
                        Synthetic.simulate gt ~state:s ~index:(1_000_000 + p)
                          (Cbmf_linalg.Mat.row i.Wire.xs p))
                      i.Wire.states
                  in
                  (i.Wire.ref_means, y))
                pool)
            pools))
  in
  Cbmf_model.Metrics.relative_rms_pooled pairs

type phase = {
  rate : float;
  lat : (float * int * float) list;  (** (due, class, latency ms) *)
  late_ms : float list;
  out : Wire.outcomes;
  timed_out : bool;
}

(* A client connection driven without blocking: frames queued for
   writing, bytes read but not yet framed, and the requests awaiting
   their reply (the server answers a connection in order). *)
type conn = {
  fd : Unix.file_descr;
  outq : (Bytes.t * int ref) Queue.t;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  waiting : (float * int * Wire.input) Queue.t;
  mutable alive : bool;
}

let conn fd =
  Unix.set_nonblock fd;
  { fd; outq = Queue.create (); rbuf = Bytes.create 65536; rlen = 0;
    waiting = Queue.create (); alive = true }

let would_block = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | _ -> false

(* Write as much queued output as the socket takes now. *)
let flush c =
  let rec go () =
    match Queue.peek_opt c.outq with
    | None -> ()
    | Some (b, off) -> (
        match Unix.single_write c.fd b !off (Bytes.length b - !off) with
        | n ->
            off := !off + n;
            if !off = Bytes.length b then (ignore (Queue.pop c.outq); go ())
        | exception e when would_block e -> ())
  in
  go ()

(* Read what has arrived and hand every complete frame's body to [f]. *)
let drain c f =
  let rec fill () =
    if c.rlen = Bytes.length c.rbuf then begin
      let nb = Bytes.create (2 * Bytes.length c.rbuf) in
      Bytes.blit c.rbuf 0 nb 0 c.rlen;
      c.rbuf <- nb
    end;
    match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
    | 0 -> raise Protocol.Closed
    | n -> c.rlen <- c.rlen + n; fill ()
    | exception e when would_block e -> ()
  in
  fill ();
  let pos = ref 0 in
  let continue = ref true in
  while !continue && c.rlen - !pos >= 4 do
    let len = Int32.to_int (Bytes.get_int32_le c.rbuf !pos) in
    if len < 0 || len > Protocol.max_frame_len then
      raise (Codec.Corrupt "reply frame length out of range");
    if c.rlen - !pos - 4 >= len then begin
      f (Bytes.sub_string c.rbuf (!pos + 4) len);
      pos := !pos + 4 + len
    end
    else continue := false
  done;
  Bytes.blit c.rbuf !pos c.rbuf 0 (c.rlen - !pos);
  c.rlen <- c.rlen - !pos

(* One open-loop phase at [rate] requests/s for [duration] seconds.
   Arrivals, classes, inputs and connections come from [rng]; request
   frames are encoded once per input beforehand, so the generator only
   copies bytes and its lateness measures scheduling alone. *)
let phase conns pools frames ~rng ~rate ~duration =
  let arrivals =
    let t = ref 0.0 and acc = ref [] in
    while
      t := !t -. (log (1.0 -. Random.State.float rng 1.0) /. rate);
      !t < duration
    do
      let ci = Random.State.int rng 2 in
      let ii = Random.State.int rng pool_inputs in
      acc := (!t, ci, ii, Random.State.int rng n_conns) :: !acc
    done;
    Array.of_list (List.rev !acc)
  in
  let n = Array.length arrivals in
  let o = Wire.outcomes () in
  let lat = ref [] and late = ref [] in
  let t0 = now () +. 0.005 in
  let deadline = t0 +. duration +. reply_timeout_s in
  let busy c = c.alive && not (Queue.is_empty c.waiting) in
  let fail c =
    c.alive <- false;
    Queue.iter (fun _ -> Wire.count o "transport") c.waiting;
    Queue.clear c.waiting;
    Queue.clear c.outq
  in
  let due i = let d, _, _, _ = arrivals.(i) in t0 +. d in
  let next = ref 0 in
  while (!next < n || Array.exists busy conns) && now () < deadline do
    let t = now () in
    if !next < n && t >= due !next then begin
      let d, ci, ii, k = arrivals.(!next) in
      incr next;
      let c = conns.(k) in
      if not c.alive then Wire.count o "transport"
      else begin
        late := (1e3 *. (t -. (t0 +. d))) :: !late;
        Queue.push (frames.(ci).(ii), ref 0) c.outq;
        Queue.push (t0 +. d, ci, pools.(ci).(ii)) c.waiting;
        try flush c with Unix.Unix_error _ -> fail c
      end
    end
    else begin
      let wait = (if !next < n then due !next else deadline) -. t in
      let live = List.filter (fun c -> c.alive) (Array.to_list conns) in
      let rd = List.map (fun c -> c.fd) (List.filter busy live) in
      let wr =
        List.map (fun c -> c.fd)
          (List.filter (fun c -> not (Queue.is_empty c.outq)) live)
      in
      let r, w, _ =
        try Unix.select rd wr [] (Float.max 0.0 wait)
        with e when would_block e -> ([], [], [])
      in
      List.iter
        (fun c ->
          try
            if List.mem c.fd w then flush c;
            if List.mem c.fd r then
              drain c (fun body ->
                  let d, ci, inp = Queue.pop c.waiting in
                  Wire.count o (Wire.classify inp (Protocol.decode_reply body));
                  lat := (d, ci, 1e3 *. (now () -. d)) :: !lat)
          with
          | Protocol.Closed | Codec.Corrupt _ | Unix.Unix_error _ | Queue.Empty ->
            fail c)
        live
    end
  done;
  let timed_out = Array.exists busy conns || !next < n in
  Array.iter (fun c -> Queue.iter (fun _ -> Wire.count o "timeout") c.waiting) conns;
  for _ = !next to n - 1 do
    Wire.count o "timeout"
  done;
  { rate; lat = !lat; late_ms = !late; out = o; timed_out }

let class_ms lat ci =
  List.filter_map (fun (_, c, l) -> if c = ci then Some l else None) lat

(* Latency growth inside a step: the median of the last quarter of
   arrivals against the first quarter's. *)
let growing p =
  let by_due = List.sort compare p.lat |> Array.of_list in
  let n = Array.length by_due in
  let q = n / 4 in
  if q < 10 then false
  else
    let med lo =
      quantile (List.init q (fun i -> let _, _, l = by_due.(lo + i) in l)) 0.5
    in
    let first = med 0 and last = med (n - q) in
    last > Float.max (2.0 *. first) (first +. 5.0)


let step_json p ~pass =
  O
    [
      ("rate", F p.rate);
      ("pass", B pass);
      ("valid", B (quantile p.late_ms 0.99 <= late_bound_ms));
      ("growing", B (growing p));
      ("late_p99_ms", F (quantile p.late_ms 0.99));
      ("wide_p99_ms", F (quantile (class_ms p.lat 0) 0.99));
      ("dense_p99_ms", F (quantile (class_ms p.lat 1) 0.99));
      ("outcomes", Wire.outcomes_json p.out);
    ]

let passes p =
  quantile p.late_ms 0.99 <= late_bound_ms
  && Wire.failed p.out = 0
  && quantile (class_ms p.lat 0) 0.99 <= p99_limit_ms
  && quantile (class_ms p.lat 1) 0.99 <= p99_limit_ms
  && not (growing p)

let reconnect sock conns =
  Array.iteri
    (fun k c ->
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      conns.(k) <- conn (Wire.connect sock))
    conns

(* Untraced: ship cycles, the base-rate phase and the ladder search.
   Traced: one ship, a longer base-rate phase, the server's Stats and
   the offline per-class layer costs. *)
let run ~sock ~seed ~seconds ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let ctl = Wire.connect sock in
  let shipped = ship ctl in
  let pools = inputs shipped ~seed in
  let frames =
    Array.map
      (Array.map (fun i -> Protocol.frame (Protocol.encode_request (Wire.request i))))
      pools
  in
  let err = test_rel_err shipped pools in
  let conns = Array.init n_conns (fun _ -> conn (Wire.connect sock)) in
  let total = Wire.outcomes () in
  let run_phase ~rate ~duration =
    let p = phase conns pools frames ~rng ~rate ~duration in
    Wire.merge ~into:total p.out;
    if p.timed_out || Wire.failed p.out > 0 then reconnect sock conns;
    p
  in
  (* The base-rate phase runs in three segments between ladder probes,
     and the untraced run re-ships its models after every probe, so
     both figures sample the whole run rather than one stretch of it. *)
  let base_s = seconds *. if trace then 0.6 else 0.5 in
  let base = ref [] and late = ref [] in
  let base_segment () =
    let p = run_phase ~rate:base_rps ~duration:(base_s /. 3.0) in
    base := p.lat @ !base;
    late := p.late_ms @ !late
  in
  let steps = ref [] and max_rps = ref 0.0 and ship_s = ref [] in
  let reship () =
    if not trace then ship_s := snd (timed (fun () -> ship ctl)) :: !ship_s
  in
  reship ();
  base_segment ();
  if trace then (base_segment (); base_segment ())
  else begin
    (* Binary search over the fixed ladder for the highest passing
       step.  A failed step is probed once more and fails only if the
       retry fails too, so one transient stall does not cut the search
       short: five probes plus up to two retries. *)
    let step_s = seconds *. 0.4 /. 7.0 in
    let retries = ref 2 in
    let lo = ref (-1) and hi = ref (Array.length ladder) and probes = ref 0 in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      let probe () =
        let p = run_phase ~rate:ladder.(mid) ~duration:step_s in
        let pass = passes p in
        steps := step_json p ~pass :: !steps;
        pass
      in
      let pass =
        probe ()
        || !retries > 0
           && begin
                decr retries;
                reship ();
                probe ()
              end
      in
      if pass then lo := mid else hi := mid;
      incr probes;
      reship ();
      if !probes = 2 || !probes = 4 then base_segment ()
    done;
    if !lo >= 0 then max_rps := ladder.(!lo)
  end;
  let layers, counts =
    if not trace then ([], [])
    else
      let per_class =
        Array.to_list
          (Array.mapi
             (fun ci (_, m) -> Wire.offline ~cls:classes.(ci).name m pools.(ci).(0))
             shipped)
      in
      (List.concat_map fst per_class, List.concat_map snd per_class)
  in
  (* A fresh connection: the server's socket timeout may have closed
     the control one while the load ran. *)
  let stats =
    if trace then begin
      let fd = Wire.connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Wire.stats_json fd)
    end
    else "{}"
  in
  Array.iter (fun c -> Unix.close c.fd) conns;
  Unix.close ctl;
  [
    ("model_s", floats !ship_s);
    ("test_rel_err", floats [ err ]);
    ("wide_ms", Wire.latency_json (class_ms !base 0));
    ("dense_ms", Wire.latency_json (class_ms !base 1));
    ("max_rps", F !max_rps);
    ("late_p99_ms", F (quantile !late 0.99));
    ("steps", L (List.rev !steps));
    ("outcomes", Wire.outcomes_json total);
    ("layers", O (List.map (fun (k, v) -> (k, F v)) layers));
    ("counts", O (List.map (fun (k, v) -> (k, I v)) counts));
    ("stats", Raw stats);
  ]
