(* Shared measurement helpers: wall clock, a small JSON writer for the
   one result line the binary prints, bit-exact hashes, and the
   process's peak resident size. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Accumulating span timer: [span acc f] runs [f] and adds its wall
   time to [acc]. *)
let span acc f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> acc := !acc +. (now () -. t0)) f

type json =
  | F of float
  | I of int
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list
  | Raw of string  (** an already-rendered JSON value *)

let rec render buf = function
  | F f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
  | I i -> Buffer.add_string buf (string_of_int i)
  | S s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | B b -> Buffer.add_string buf (string_of_bool b)
  | Raw s -> Buffer.add_string buf s
  | L xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          render buf x)
        xs;
      Buffer.add_char buf ']'
  | O kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%S:" k);
          render buf v)
        kvs;
      Buffer.add_char buf '}'

(* The binary's result: one JSON object on one line of stdout. *)
let emit j =
  let buf = Buffer.create 4096 in
  render buf j;
  print_string (Buffer.contents buf);
  print_newline ()

let floats xs = L (List.map (fun x -> F x) xs)

(* Bit-exact fingerprint of float payloads (FNV-1a over IEEE-754 bit
   patterns): equal hashes across processes mean identical bits. *)
let hash_floats arrays =
  let h =
    List.fold_left Cbmf_testkit.Seeded.hash_floats_acc
      Cbmf_testkit.Seeded.fnv_offset arrays
  in
  Printf.sprintf "%016Lx" h

let hash_string s = Digest.to_hex (Digest.string s)

(* VmHWM of a process in MiB, read from /proc ([None] where /proc is
   unavailable). *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.0))
            else loop ()
      in
      loop ()

let provenance ~workload ~seed =
  O
    [
      ("workload", S workload);
      ("seed", I seed);
      ("recommended_domain_count", I (Domain.recommended_domain_count ()));
      ("pool_domains", I (Cbmf_parallel.Pool.size (Cbmf_parallel.Pool.default ())));
      ( "cbmf_domains_env",
        match Sys.getenv_opt "CBMF_DOMAINS" with Some v -> S v | None -> S "" );
      ("ocaml_version", S Sys.ocaml_version);
    ]

(* Nearest-rank quantile of a sample ([nan] when empty). *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort Float.compare a;
    a.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end
