(* The serving side every workload shares: the server child process,
   client connections speaking the wire protocol, typed request
   outcomes, and the closed-loop probe the fit workloads run against
   the models they ship. *)

open Cbmf_linalg
open Cbmf_serve
open Common

(* [bench.exe server SOCKET]: a default-configured server on a
   Unix-domain socket.  Prints "ready" once it listens and serves until
   it is killed or sent Shutdown. *)
let server_main sock =
  let t = Server.start (Unix.ADDR_UNIX sock) in
  print_endline "ready";
  Server.wait t

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let call fd req =
  Protocol.write_request fd req;
  Protocol.decode_reply (Protocol.read_frame fd)

(* Ship one snapshot image into the live server under [name]. *)
let load fd ~name image =
  match call fd (Protocol.Load { name; source = Protocol.Inline image }) with
  | Protocol.Loaded _ -> ()
  | _ -> failwith ("server refused to load " ^ name)

let stats_json fd =
  match call fd Protocol.Stats with
  | Protocol.Stats_json s -> s
  | _ -> failwith "server did not answer the Stats op"

let ping fd =
  match call fd Protocol.Ping with
  | Protocol.Pong _ -> ()
  | _ -> failwith "server did not answer Ping"

(* Every request ends in exactly one named outcome: "ok", a reply
   error code, another reply kind, a reply whose bits differ from the
   in-process engine ("mismatch"), "transport" or "timeout". *)
type outcomes = (string, int) Hashtbl.t

let outcomes () : outcomes = Hashtbl.create 8

let count (o : outcomes) k =
  Hashtbl.replace o k (1 + Option.value ~default:0 (Hashtbl.find_opt o k))

let attempted (o : outcomes) = Hashtbl.fold (fun _ n acc -> acc + n) o 0

let failed (o : outcomes) =
  Hashtbl.fold (fun k n acc -> if k = "ok" then acc else acc + n) o 0

(* Add [o]'s counts into [acc]. *)
let merge ~into:(acc : outcomes) (o : outcomes) =
  Hashtbl.iter
    (fun k n -> Hashtbl.replace acc k (n + Option.value ~default:0 (Hashtbl.find_opt acc k)))
    o

let outcomes_json (o : outcomes) =
  O
    (Hashtbl.fold (fun k n acc -> (k, I n) :: acc) o []
    |> List.sort compare)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* One request input with the answer the in-process engine gives for
   it — every served reply must match it bit for bit. *)
type input = {
  model_name : string;
  states : int array;
  xs : Mat.t;
  ref_means : float array;
  ref_sds : float array;
}

let input ~model_name model ~states ~xs =
  let ref_means, ref_sds = Engine.predict_batch model ~states ~xs in
  { model_name; states; xs; ref_means; ref_sds }

let request i =
  Protocol.Predict { name = i.model_name; states = i.states; xs = i.xs }

let classify i = function
  | Protocol.Predicted { means; sds } ->
      if same_bits means i.ref_means && same_bits sds i.ref_sds then "ok"
      else "mismatch"
  | Protocol.Error { code; _ } -> "error." ^ Protocol.error_code_name code
  | Protocol.Overloaded _ -> "overloaded"
  | _ -> "unexpected_reply"

(* Request inputs for a served model: [n] points of standard-normal
   raw variation at round-robin states, drawn from [rng]. *)
let random_input rng ~model_name (model : Model.t) ~n =
  let xs =
    Mat.init n model.Model.input_dim (fun _ _ -> Cbmf_prob.Rng.gaussian rng)
  in
  let states = Array.init n (fun i -> i mod model.Model.n_states) in
  input ~model_name model ~states ~xs

type probe = {
  wide_ms : float list;
  dense_ms : float list;
  probe_s : float;
  probe_outcomes : outcomes;
}

let rec write_all fd b off =
  if off < Bytes.length b then
    write_all fd b (off + Unix.write fd b off (Bytes.length b - off))

(* Closed loop on one connection: [n] requests per class, alternating
   wide and dense, each sent as soon as the previous reply arrived.
   Frames are encoded once per input, so the round trip (the latency)
   holds no client-side encoding. *)
let closed_loop fd ~wide ~dense ~n =
  let o = outcomes () in
  let lat = [| []; [] |] in
  let frame i = Protocol.frame (Protocol.encode_request (request i)) in
  let frames = [| Array.map frame wide; Array.map frame dense |] in
  let t0 = now () in
  for r = 0 to (2 * n) - 1 do
    let cls = r land 1 in
    let pool = if cls = 0 then wide else dense in
    let k = r / 2 mod Array.length pool in
    let i = pool.(k) in
    let s = now () in
    match
      write_all fd frames.(cls).(k) 0;
      Protocol.decode_reply (Protocol.read_frame fd)
    with
    | reply ->
        count o (classify i reply);
        lat.(cls) <- (1e3 *. (now () -. s)) :: lat.(cls)
    | exception (Protocol.Closed | Codec.Corrupt _ | Unix.Unix_error _) ->
        count o "transport"
  done;
  {
    wide_ms = lat.(0);
    dense_ms = lat.(1);
    probe_s = now () -. t0;
    probe_outcomes = o;
  }

(* Median over 25 blocks of the per-call time of a block of 20 calls,
   in microseconds (a block is long enough for the wall clock's
   resolution). *)
let median_us f =
  quantile
    (List.init 25 (fun _ ->
         let t0 = now () in
         for _ = 1 to 20 do
           ignore (Sys.opaque_identity (f ()))
         done;
         1e6 *. (now () -. t0) /. 20.0))
    0.5

(* Offline per-layer costs of one request class, on an input the load
   used: request encode, reply decode, bytes on the wire and the
   in-process engine call. *)
let offline ~cls model (i : input) =
  let body = Protocol.encode_request (request i) in
  let reply =
    Protocol.encode_reply
      (Protocol.Predicted { means = i.ref_means; sds = i.ref_sds })
  in
  [
    ("protocol.encode_us." ^ cls,
      median_us (fun () -> Protocol.encode_request (request i)));
    ("protocol.decode_reply_us." ^ cls,
      median_us (fun () -> Protocol.decode_reply reply));
    ("engine.predict_batch_us." ^ cls,
      median_us (fun () ->
          Engine.predict_batch model ~states:i.states ~xs:i.xs));
  ],
  [ ("wire.request_bytes." ^ cls, String.length body + 4) ]

let latency_json ms =
  O
    [
      ("p50", F (quantile ms 0.5));
      ("p90", F (quantile ms 0.9));
      ("p99", F (quantile ms 0.99));
      ("n", I (List.length ms));
    ]
