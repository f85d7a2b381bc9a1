(* Atomic snapshot persistence: a plain-data image of the engine's
   current generation, written tmp+fsync+rename so a reader never
   observes a half-written checkpoint — after any crash the file is
   either the old complete checkpoint or the new complete one. *)

type t = {
  c_generation : int;
  c_desc : bool;
  c_raw : Geom.Vec.t array;
  c_queries : (float array * int * int) array;
  c_depth : int;
}

let magic = "iq-ckpt-v1"

let path_in dir = Filename.concat dir "checkpoint.iqc"

let linear_utility (u : Topk.Utility.t) =
  u.Topk.Utility.dim_in = u.Topk.Utility.dim_out
  && String.length u.Topk.Utility.name >= 6
  && String.sub u.Topk.Utility.name 0 6 = "linear"

let check snap =
  let u = (Iq.Snapshot.instance snap).Iq.Instance.utility in
  if linear_utility u then Ok ()
  else Error (Iq.Engine.Error.Not_checkpointable u.Topk.Utility.name)

let of_snapshot snap =
  let inst = Iq.Snapshot.instance snap in
  if not (linear_utility inst.Iq.Instance.utility) then
    invalid_arg "Durable.Checkpoint.of_snapshot: snapshot failed [check]";
  let order = inst.Iq.Instance.order in
  {
    c_generation = Iq.Snapshot.generation snap;
    c_desc = (order = Topk.Utility.Desc);
    c_raw = inst.Iq.Instance.raw;
    c_queries =
      (* the instance stores effective (minimizing) weights; applying
         the order map again de-negates Desc exactly (negation is an
         involution), so [instance] below round-trips bit-for-bit
         through [Instance.create ~order] *)
      Array.map
        (fun (q : Topk.Query.t) ->
          ( Topk.Utility.effective_weights order q.Topk.Query.weights,
            q.Topk.Query.k,
            q.Topk.Query.id ))
        inst.Iq.Instance.queries;
    c_depth = Iq.Query_index.depth (Iq.Snapshot.index snap);
  }

let generation c = c.c_generation

let instance c =
  let queries =
    Array.to_list c.c_queries
    |> List.map (fun (w, k, id) -> Topk.Query.make ~id ~k w)
  in
  let order = if c.c_desc then Topk.Utility.Desc else Topk.Utility.Asc in
  Iq.Instance.create ~order ~data:c.c_raw ~queries ()

let depth_slack c inst =
  Int.max 0 (c.c_depth - (Iq.Instance.max_k inst + 1))

let marshal c =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Buffer.add_string b (Marshal.to_string c []);
  Buffer.contents b

let write ?fault path c =
  let bytes = marshal c in
  let tmp = path ^ ".tmp" in
  let spill n =
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_substring oc bytes 0 n;
        flush oc)
  in
  (* [checkpoint.write] fires before the tmp file exists; a torn rule
     leaves a partial [.tmp] behind — harmless, since only the rename
     publishes. *)
  (try Resilience.Fault.point fault ~site:"checkpoint.write"
   with
  | Resilience.Fault.Torn_write { frac; _ } as e ->
      spill (int_of_float (frac *. float_of_int (String.length bytes)));
      raise e
  | e -> raise e);
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc bytes;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  (* [checkpoint.rename] fires with the tmp complete but unpublished:
     the crash window where the old checkpoint must still win. *)
  Resilience.Fault.point fault ~site:"checkpoint.rename";
  Sys.rename tmp path;
  String.length bytes

let read path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no checkpoint at %s" path)
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let line = try input_line ic with End_of_file -> "" in
          if line <> magic then
            Error (Printf.sprintf "%s is not a checkpoint (bad magic)" path)
          else Ok (Marshal.from_channel ic : t))
    with e ->
      Error
        (Printf.sprintf "unreadable checkpoint %s: %s" path
           (Printexc.to_string e))
