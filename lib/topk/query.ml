type t = { weights : Geom.Vec.t; k : int; id : int }

let make ?(id = -1) ~k weights =
  if k <= 0 then invalid_arg "Query.make: k <= 0";
  { weights; k; id }
