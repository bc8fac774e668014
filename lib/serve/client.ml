type t = { fd : Unix.file_descr; mutable closed : bool }

let of_fd fd = { fd; closed = false }

let connect ?(timeout = 10.0) sockaddr =
  let domain =
    match sockaddr with
    | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
   with Unix.Unix_error _ -> ());
  of_fd fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let send_raw t body =
  Protocol.write_frame t.fd body;
  Protocol.decode_reply (Protocol.read_frame t.fd)

let call t req =
  Protocol.write_request t.fd req;
  Protocol.decode_reply (Protocol.read_frame t.fd)

let err_string code message =
  Printf.sprintf "%s: %s" (Protocol.error_code_name code) message

let load_result t req =
  match call t req with
  | Protocol.Loaded { n_active; n_states; bytes } -> Ok (n_active, n_states, bytes)
  | Protocol.Error { code; message } -> Error (err_string code message)
  | _ -> Error "unexpected reply"

let load_path t ~name ~path =
  load_result t (Protocol.Load { name; source = Protocol.Path path })

let load_inline t ~name ~image =
  load_result t (Protocol.Load { name; source = Protocol.Inline image })

let predict t ~name ~states ~xs =
  match call t (Protocol.Predict { name; states; xs }) with
  | Protocol.Predicted { means; sds } -> Ok (means, sds)
  | Protocol.Error { code; message } -> Error (err_string code message)
  | _ -> Error "unexpected reply"

let stats t =
  match call t Protocol.Stats with
  | Protocol.Stats_json json -> Ok json
  | Protocol.Error { code; message } -> Error (err_string code message)
  | _ -> Error "unexpected reply"

let shutdown t =
  match call t Protocol.Shutdown with
  | _ -> ()
  | exception (Protocol.Closed | Codec.Corrupt _ | Unix.Unix_error _) -> ()

(* --- Typed failures --------------------------------------------------- *)

type failure =
  | Connection_lost of string
  | Overloaded of { queue_depth : int; retry_after_ms : int }
  | Server_error of { code : Protocol.error_code; message : string }
  | Unexpected of string

let failure_to_string = function
  | Connection_lost msg -> Printf.sprintf "connection lost: %s" msg
  | Overloaded { queue_depth; retry_after_ms } ->
      Printf.sprintf "overloaded: queue depth %d, retry after %d ms"
        queue_depth retry_after_ms
  | Server_error { code; message } ->
      Printf.sprintf "%s: %s" (Protocol.error_code_name code) message
  | Unexpected msg -> Printf.sprintf "unexpected reply: %s" msg

let retryable = function
  | Connection_lost _ | Overloaded _ -> true
  | Server_error _ | Unexpected _ -> false

(* One round-trip with every transport-level failure folded into a
   typed value: a hangup, a torn reply frame, a socket timeout and a
   refused connect all become [Connection_lost] — the stream is gone
   either way, and a caller (e.g. [Shard.router]) can't use the raw
   exception to decide anything the constructor doesn't already say. *)
let call_typed t req =
  match call t req with
  | Protocol.Overloaded { queue_depth; retry_after_ms } ->
      Error (Overloaded { queue_depth; retry_after_ms })
  | Protocol.Error { code; message } -> Error (Server_error { code; message })
  | reply -> Ok reply
  | exception Protocol.Closed ->
      Error (Connection_lost "server closed the connection")
  | exception End_of_file -> Error (Connection_lost "unexpected end of stream")
  | exception Codec.Corrupt msg ->
      Error (Connection_lost (Printf.sprintf "torn reply: %s" msg))
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Connection_lost (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let predicted_of = function
  | Ok (Protocol.Predicted { means; sds }) -> Ok (means, sds)
  | Ok _ -> Error (Unexpected "predict answered with a non-predict reply")
  | Error _ as e -> e

let predict_typed t ~name ~states ~xs =
  predicted_of (call_typed t (Protocol.Predict { name; states; xs }))

(* Pipelined predicts: every frame goes out before any reply is read,
   collapsing N round-trip latencies into one.  The server handles a
   connection sequentially, so pipelining alone does not fill the
   dynamic batcher's window — cross-connection concurrency does that —
   but it keeps this connection's requests flowing back-to-back into
   it.  Replies come back in request order.  A
   transport failure poisons the rest of the pipeline — the stream is
   unreadable past the tear — so every remaining slot gets the same
   [Connection_lost]; a typed server error ([Model_not_found], a shape
   error) only fails its own slot. *)
let predict_many t ~name reqs =
  let lost = ref None in
  let connection_lost e =
    let f =
      match e with
      | Protocol.Closed -> Connection_lost "server closed the connection"
      | End_of_file -> Connection_lost "unexpected end of stream"
      | Codec.Corrupt msg ->
          Connection_lost (Printf.sprintf "torn reply: %s" msg)
      | Unix.Unix_error (ue, fn, _) ->
          Connection_lost (Printf.sprintf "%s: %s" fn (Unix.error_message ue))
      | e -> raise e
    in
    lost := Some f;
    f
  in
  (* Send phase.  SO_SNDTIMEO bounds a wedged pipe (a server that
     stopped reading while both socket buffers are full), surfacing it
     as [Connection_lost] rather than a hang. *)
  (try
     List.iter
       (fun (states, xs) ->
         match !lost with
         | Some _ -> ()
         | None ->
             Protocol.write_request t.fd (Protocol.Predict { name; states; xs }))
       reqs
   with e -> ignore (connection_lost e));
  (* Read phase, in order; sends that never happened still consume a
     slot so the result list always aligns with [reqs]. *)
  List.map
    (fun _ ->
      match !lost with
      | Some f -> Error f
      | None -> (
          match Protocol.decode_reply (Protocol.read_frame t.fd) with
          | Protocol.Predicted { means; sds } -> Ok (means, sds)
          | Protocol.Overloaded { queue_depth; retry_after_ms } ->
              Error (Overloaded { queue_depth; retry_after_ms })
          | Protocol.Error { code; message } ->
              Error (Server_error { code; message })
          | _ -> Error (Unexpected "predict answered with a non-predict reply")
          | exception
              ((Protocol.Closed | End_of_file | Codec.Corrupt _
               | Unix.Unix_error _) as e) ->
              Error (connection_lost e)))
    reqs

let predict_deadline t ~name ~states ~xs ~deadline_ms =
  predicted_of
    (call_typed t (Protocol.Predict_deadline { name; states; xs; deadline_ms }))

let ping t =
  match call_typed t Protocol.Ping with
  | Ok (Protocol.Pong { generation }) -> Ok generation
  | Ok _ -> Error (Unexpected "ping answered with a non-pong reply")
  | Error _ as e -> e

let reload_result t req =
  match call_typed t req with
  | Ok (Protocol.Reloaded { generation; n_active; n_states; bytes }) ->
      Ok (generation, n_active, n_states, bytes)
  | Ok _ -> Error (Unexpected "reload answered with a non-reload reply")
  | Error _ as e -> e

let reload_path t ~name ~path =
  reload_result t (Protocol.Reload { name; source = Protocol.Path path })

let reload_inline t ~name ~image =
  reload_result t (Protocol.Reload { name; source = Protocol.Inline image })
