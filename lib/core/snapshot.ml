type entry = {
  e_eval : Evaluator.t;
  e_state : Ese.state option;
  e_pos : int;
  e_bname : string;
}

type t = {
  generation : int;
  index : Query_index.t;
  lock : Mutex.t;
  cache : (int, entry) Hashtbl.t;
      (* a lock-guarded cache of pure functions of the frozen [index];
         see the interface *)
}

let make ~generation index =
  { generation; index; lock = Mutex.create (); cache = Hashtbl.create 16 }

let root ?(generation = 0) index = make ~generation index

let next t index = make ~generation:(t.generation + 1) index

let generation t = t.generation

let index t = t.index

let instance t = Query_index.instance t.index

let size_words t = Query_index.size_words t.index

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find_entry t target = Hashtbl.find_opt t.cache target

let set_entry t target e = Hashtbl.replace t.cache target e

let eval_total t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ e acc -> acc + e.e_eval.Evaluator.evaluations ())
        t.cache 0)
