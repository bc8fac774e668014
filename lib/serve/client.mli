(** Blocking client for the serving protocol — used by the CLI, the
    tests and the smoke harness.  One connection, requests answered in
    order. *)

open Cbmf_linalg

type t

val connect : ?timeout:float -> Unix.sockaddr -> t
(** [timeout] (default 10 s) bounds each send/receive. *)

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected descriptor (e.g. one end of a
    [socketpair] in tests).  [close] closes it. *)

val close : t -> unit

val call : t -> Protocol.request -> Protocol.reply
(** One round-trip.  Raises {!Protocol.Closed} if the server hung up
    and {!Codec.Corrupt} if the reply does not decode. *)

val send_raw : t -> string -> Protocol.reply
(** Frame an arbitrary body and read one reply — the malformed-frame
    test hook. *)

val load_path : t -> name:string -> path:string -> (int * int * int, string) result
(** Ask the server to load a snapshot file it can reach; [Ok (n_active,
    n_states, bytes)] on success, the server's error message otherwise. *)

val load_inline : t -> name:string -> image:string -> (int * int * int, string) result
(** Ship a snapshot image in the request body. *)

val predict :
  t ->
  name:string ->
  states:int array ->
  xs:Mat.t ->
  (float array * float array, string) result

val stats : t -> (string, string) result
(** The server's stats-JSON blob. *)

val shutdown : t -> unit
(** Fire the shutdown request; tolerates the server hanging up before
    the reply lands. *)

(** {1 Typed failures}

    The [_typed] entry points never raise on transport problems:
    everything that ends a round-trip folds into a {!failure}, split
    by what a caller may do about it — {!retryable} failures
    ([Connection_lost], [Overloaded]) are safe to retry on a fresh
    connection for idempotent requests ({!Shard} drops its cached
    connection on them, so the next call redials); the rest are
    answers, not outages. *)

type failure =
  | Connection_lost of string
      (** The stream is gone: hangup, torn reply frame, socket timeout
          or refused connect.  Retryable on a fresh connection. *)
  | Overloaded of { queue_depth : int; retry_after_ms : int }
      (** Admission control shed the connection; retry after the
          hint. *)
  | Server_error of { code : Protocol.error_code; message : string }
      (** A typed error reply — the server is healthy and said no. *)
  | Unexpected of string  (** Protocol violation; not retryable. *)

val failure_to_string : failure -> string

val retryable : failure -> bool
(** [true] exactly for [Connection_lost] and [Overloaded]. *)

val call_typed : t -> Protocol.request -> (Protocol.reply, failure) result
(** Like {!call} but transport failures and [Overloaded]/[Error]
    replies land in [Error]; any other reply is [Ok]. *)

val predict_typed :
  t ->
  name:string ->
  states:int array ->
  xs:Mat.t ->
  (float array * float array, failure) result

val predict_many :
  t ->
  name:string ->
  (int array * Mat.t) list ->
  (float array * float array, failure) result list
(** Pipelined predicts on this one connection: every request frame is
    sent before any reply is read, collapsing N round-trip latencies
    into one.  (The server handles each connection sequentially, so
    pipelining does not by itself fill the dynamic batcher's window —
    that takes concurrent connections — but it keeps this connection's
    requests arriving back-to-back.)  Replies arrive in request order;
    the result list aligns 1:1 with
    the input.  A typed server error fails only its own slot; a
    transport failure (hangup, torn frame, timeout) fails its slot and
    every later one with the same [Connection_lost], since the stream
    cannot be resynchronized.  Never raises on transport problems. *)

val predict_deadline :
  t ->
  name:string ->
  states:int array ->
  xs:Mat.t ->
  deadline_ms:int ->
  (float array * float array, failure) result
(** {!predict_typed} with a client-side wall-clock budget in
    milliseconds; the server answers [Deadline_exceeded] (a
    [Server_error]) when it cannot make it. *)

val ping : t -> (int, failure) result
(** Health probe; [Ok generation] carries the registry's global
    reload generation. *)

val reload_path :
  t -> name:string -> path:string -> (int * int * int * int, failure) result
(** Atomically swap the named model to the snapshot at [path];
    [Ok (generation, n_active, n_states, bytes)].  A corrupt snapshot
    is a [Server_error] with code [Bad_snapshot] and the old model
    keeps serving. *)

val reload_inline :
  t -> name:string -> image:string -> (int * int * int * int, failure) result
(** Same, shipping the snapshot image in the request body. *)
