module Json = Cbmf_robust.Json

(* Log-spaced 1–2–5 bucket edges, 1 µs to 10 s, plus +inf overflow. *)
let bucket_edges_us =
  [|
    1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 2e4; 5e4;
    1e5; 2e5; 5e5; 1e6; 2e6; 5e6; 1e7; infinity;
  |]

let n_buckets = Array.length bucket_edges_us

(* A fixed-bucket histogram with its own count, so the overall latency,
   each latency phase and the batch-occupancy distribution (whose "µs"
   are points) share the same quantile and JSON machinery. *)
type hist = { counts : int array; mutable n : int }

let hist_make () = { counts = Array.make n_buckets 0; n = 0 }

type t = {
  lock : Mutex.t;
  ops : (string, int) Hashtbl.t;
  mutable errors : int;
  mutable points : int;
  mutable max_batch : int;
  latency : hist;  (* whole-request wall clock, per recorded request *)
  mutable sheds : int;  (* connections refused by admission control *)
  mutable deadlines : int;  (* requests answered Deadline_exceeded *)
  mutable queue_depth : int;  (* gauge: pending connections right now *)
  mutable queue_peak : int;  (* high-water mark of the gauge *)
  (* Latency split: time on the admission queue (accept → worker
     pickup, per connection), time parked in the dynamic batcher
     (enqueue → drain, per predict request), and engine compute time
     (per predict request, its share being the whole merged call). *)
  queue_wait : hist;
  batch_wait : hist;
  compute : hist;
  (* Batch occupancy: points per merged engine call (the buckets are
     point counts, not µs), plus how many wire requests coalesced. *)
  occupancy : hist;
  mutable flushes : int;  (* merged engine calls *)
  mutable coalesced : int;  (* wire requests those calls served *)
  mutable max_occupancy : int;
}

let create () =
  {
    lock = Mutex.create ();
    ops = Hashtbl.create 8;
    errors = 0;
    points = 0;
    max_batch = 0;
    latency = hist_make ();
    sheds = 0;
    deadlines = 0;
    queue_depth = 0;
    queue_peak = 0;
    queue_wait = hist_make ();
    batch_wait = hist_make ();
    compute = hist_make ();
    occupancy = hist_make ();
    flushes = 0;
    coalesced = 0;
    max_occupancy = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bucket_of_us us =
  let i = ref 0 in
  while us > bucket_edges_us.(!i) do incr i done;
  !i

let hist_add h v =
  h.counts.(bucket_of_us v) <- h.counts.(bucket_of_us v) + 1;
  h.n <- h.n + 1

let record ?batch t ~op ~ok ~seconds =
  locked t (fun () ->
      Hashtbl.replace t.ops op
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.ops op));
      if not ok then t.errors <- t.errors + 1;
      (match batch with
      | Some b ->
          t.points <- t.points + b;
          if b > t.max_batch then t.max_batch <- b
      | None -> ());
      hist_add t.latency (Float.max 0.0 (seconds *. 1e6)))

let record_queue_wait t ~seconds =
  locked t (fun () -> hist_add t.queue_wait (Float.max 0.0 (seconds *. 1e6)))

let record_batch_phase t ~batch_wait ~compute =
  locked t (fun () ->
      hist_add t.batch_wait (Float.max 0.0 (batch_wait *. 1e6));
      hist_add t.compute (Float.max 0.0 (compute *. 1e6)))

let record_flush t ~requests ~points =
  locked t (fun () ->
      hist_add t.occupancy (float_of_int (max 1 points));
      t.flushes <- t.flushes + 1;
      t.coalesced <- t.coalesced + requests;
      if points > t.max_occupancy then t.max_occupancy <- points)

let record_shed t =
  locked t (fun () -> t.sheds <- t.sheds + 1)

let record_deadline t =
  locked t (fun () -> t.deadlines <- t.deadlines + 1)

let set_queue_depth t depth =
  locked t (fun () ->
      t.queue_depth <- depth;
      if depth > t.queue_peak then t.queue_peak <- depth)

let sheds t = locked t (fun () -> t.sheds)

let deadlines t = locked t (fun () -> t.deadlines)

let hist_quantile h q =
  if h.n = 0 then 0.0
  else begin
    let target = Float.of_int h.n *. q in
    let acc = ref 0 in
    let i = ref 0 in
    while !i < n_buckets - 1 && Float.of_int (!acc + h.counts.(!i)) < target do
      acc := !acc + h.counts.(!i);
      incr i
    done;
    bucket_edges_us.(!i)
  end

let phase_quantile t which q =
  locked t (fun () ->
      let h =
        match which with
        | `Queue_wait -> t.queue_wait
        | `Batch_wait -> t.batch_wait
        | `Compute -> t.compute
        | `Occupancy -> t.occupancy
      in
      hist_quantile h q)

let to_json ?(extra = []) t =
  locked t (fun () ->
      let ops =
        Hashtbl.fold (fun op n acc -> (op, Json.Int n) :: acc) t.ops []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      (* Only the non-empty buckets, as [edge, count] pairs. *)
      let buckets h =
        Json.List
          (List.filter_map
             (fun i ->
               if h.counts.(i) = 0 then None
               else
                 Some
                   (Json.List
                      [ Json.Float bucket_edges_us.(i); Json.Int h.counts.(i) ]))
             (List.init n_buckets Fun.id))
      in
      let hist h =
        Json.Obj
          [ ("count", Json.Int h.n);
            ("p50", Json.Float (hist_quantile h 0.5));
            ("p99", Json.Float (hist_quantile h 0.99));
            ("buckets", buckets h) ]
      in
      Json.to_string
        (Json.Obj
           ([ ("requests", Json.Obj ops);
              ("errors", Json.Int t.errors);
              ("points", Json.Int t.points);
              ("max_batch", Json.Int t.max_batch);
              ("sheds", Json.Int t.sheds);
              ("deadline_exceeded", Json.Int t.deadlines);
              ("queue_depth", Json.Int t.queue_depth);
              ("queue_peak", Json.Int t.queue_peak);
              ("latency_us", hist t.latency);
              (* Latency split: where a request's time went — admission
                 queue, batcher park, engine compute. *)
              ( "phases",
                Json.Obj
                  [ ("queue_wait_us", hist t.queue_wait);
                    ("batch_wait_us", hist t.batch_wait);
                    ("compute_us", hist t.compute) ] );
              (* Batch occupancy: points per merged engine call (bucket
                 edges are point counts here, not µs). *)
              ( "batch_occupancy",
                Json.Obj
                  [ ("flushes", Json.Int t.flushes);
                    ("coalesced_requests", Json.Int t.coalesced);
                    ("max_points", Json.Int t.max_occupancy);
                    ("p50_points", Json.Float (hist_quantile t.occupancy 0.5));
                    ("p99_points", Json.Float (hist_quantile t.occupancy 0.99));
                    ("buckets", buckets t.occupancy) ] ) ]
           @ extra)))

let registry_json (r : Registry.stats) =
  Json.Obj
    [ ("hits", Json.Int r.Registry.hits);
      ("misses", Json.Int r.Registry.misses);
      ("loads", Json.Int r.Registry.loads);
      ("evictions", Json.Int r.Registry.evictions);
      ("reloads", Json.Int r.Registry.reloads);
      ("generation", Json.Int r.Registry.generation);
      ("resident_bytes", Json.Int r.Registry.resident_bytes);
      ("resident_models", Json.Int r.Registry.resident_models);
      ("max_bytes", Json.Int r.Registry.max_bytes) ]
