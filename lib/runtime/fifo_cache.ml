type ('k, 'v) t = { capacity : int; table : ('k, 'v) Hashtbl.t; order : 'k Queue.t }

let create capacity =
  if capacity < 1 then invalid_arg "Fifo_cache.create: capacity must be >= 1";
  { capacity; table = Hashtbl.create (Stdlib.min capacity 16); order = Queue.create () }

let find_or_add c key compute =
  match Hashtbl.find_opt c.table key with
  | Some v -> v
  | None ->
      let v = compute key in
      if Hashtbl.length c.table >= c.capacity then
        Hashtbl.remove c.table (Queue.pop c.order);
      Hashtbl.replace c.table key v;
      Queue.push key c.order;
      v

let length c = Hashtbl.length c.table
