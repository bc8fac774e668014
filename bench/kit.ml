(* The bench sections' shared measurement kit: one timing loop, one
   artifact writer with the host it ran on, one schema validator, one
   failure exit, and the synthetic serving model two sections drive. *)

module Json = Cbmf_robust.Json

let fail fmt =
  Format.kasprintf
    (fun msg ->
      Format.printf "  SMOKE FAIL: %s@." msg;
      exit 1)
    fmt

type timing = { min : float; median : float; mad : float }

(* One warm-up call (spawns the pool at its current size, pages buffers
   in), then [reps] timed calls. *)
let time ~reps f =
  f ();
  let xs =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  let median = Cbmf_prob.Stats.median xs in
  {
    min = Cbmf_prob.Stats.minimum xs;
    median;
    mad = Cbmf_prob.Stats.median (Array.map (fun x -> abs_float (x -. median)) xs);
  }

let timing_fields t =
  [ ("min_s", Json.Float t.min);
    ("median_s", Json.Float t.median);
    ("mad_s", Json.Float t.mad) ]

let timing_json t = Json.Obj (timing_fields t)

(* The same fields as perfbench/common.ml's provenance block. *)
let host () =
  Json.Obj
    [ ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("pool_domains", Json.Int (Cbmf_parallel.Pool.size (Cbmf_parallel.Pool.default ())));
      ( "cbmf_domains_env",
        Json.String (Option.value ~default:"" (Sys.getenv_opt "CBMF_DOMAINS")) );
      ("ocaml_version", Json.String Sys.ocaml_version) ]

let write path fields =
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj (fields @ [ ("host", host ()) ])));
  output_char oc '\n';
  close_out oc;
  Format.printf "  [wrote %s]@." path

(* Re-reads [path] and fails listing every key of [required] (plus the
   host block's) that no member of the file carries. *)
let check path ~required =
  let ic = open_in path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let has key =
    let needle = Json.to_string (Json.String key) ^ ":" in
    let nl = String.length needle in
    let rec scan i =
      i + nl <= String.length body
      && (String.sub body i nl = needle || scan (i + 1))
    in
    scan 0
  in
  let required =
    required
    @ [ "host"; "recommended_domain_count"; "pool_domains"; "cbmf_domains_env";
        "ocaml_version" ]
  in
  match List.filter (fun k -> not (has k)) required with
  | [] -> ()
  | missing -> fail "%s missing %s" path (String.concat ", " missing)

let bits_eq xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       xs ys

(* A valid synthetic serving model with [a] active terms over [dim]
   inputs and [k] states, its parameters drawn from [rng]. *)
let serve_model rng ~dim ~k ~a =
  let open Cbmf_linalg in
  let model =
    {
      Cbmf_serve.Model.input_dim = dim;
      n_states = k;
      terms =
        Array.init a (fun j ->
            if j = 0 then Cbmf_basis.Term.Constant
            else if j <= dim then Cbmf_basis.Term.Linear ((j - 1) mod dim)
            else Cbmf_basis.Term.Square ((j - 1) mod dim));
      col_means = Mat.init k a (fun _ _ -> 0.1 *. Cbmf_prob.Rng.gaussian rng);
      col_scales = Array.init a (fun j -> 1.0 +. (0.1 *. float_of_int (j mod 5)));
      y_means = Array.init k (fun _ -> Cbmf_prob.Rng.gaussian rng);
      y_scale = 2.0;
      mu = Mat.init a k (fun _ _ -> Cbmf_prob.Rng.gaussian rng);
      lambda = Array.make a 1.0;
      r = Mat.init k k (fun i j -> if i = j then 1.0 else 0.5);
      sigma0 = 0.1;
      cov =
        Array.init k (fun _ ->
            Mat.init a a (fun i j ->
                if i = j then 1.0 else 0.01 *. float_of_int ((i + j) mod 7)));
    }
  in
  (match Cbmf_serve.Model.validate model with
  | Ok () -> ()
  | Error e -> fail "synthetic model invalid: %s" e);
  model
