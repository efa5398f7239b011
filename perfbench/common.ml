(* Helpers shared by the benchmark's daemon program and its client process.

   Both processes talk to run.py over their standard streams: one-word
   commands arrive on stdin, and every report leaves stdout as one JSON
   object per line. Times are absolute wall-clock seconds
   (Unix.gettimeofday), so run.py can join the daemon's tick records with
   the clients' delivery records on the shared host clock. *)

let now () = Unix.gettimeofday ()

let params name =
  match Pairing.by_name name with
  | Some p -> p
  | None -> failwith ("unknown parameter set " ^ name)

let emit line =
  print_string line;
  print_char '\n';
  flush stdout

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jtime t = Printf.sprintf "%.6f" t

(* A JSON array of already-rendered elements. *)
let jlist xs = "[" ^ String.concat "," xs ^ "]"

(* Spans for the traced run: a name, a request id, a parent, a start and
   an end. They stay in memory and are written out when the process
   ends; run.py derives per-layer times and self times from them. Each
   recorder belongs to one thread of control, so recording takes no
   lock; ids are unique within a recorder and [who] names it. *)
module Span = struct
  type t = {
    id : int;
    name : string;
    req : string;
    parent : int;  (** id of the enclosing span, -1 for a root *)
    t0 : float;
    t1 : float;
  }

  type recorder = { who : string; mutable next : int; mutable spans : t list }

  let recorder who = { who; next = 0; spans = [] }

  let fresh r =
    let id = r.next in
    r.next <- id + 1;
    id

  let add r ?id ~name ~req ~parent t0 t1 =
    let id = match id with Some i -> i | None -> fresh r in
    r.spans <- { id; name; req; parent; t0; t1 } :: r.spans

  let to_json r =
    jlist
      (List.rev_map
         (fun s ->
           Printf.sprintf "[%s,%d,%s,%s,%d,%s,%s]" (jstr r.who) s.id
             (jstr s.name) (jstr s.req) s.parent (jtime s.t0) (jtime s.t1))
         r.spans)
end

(* --- socket helpers for the client side --- *)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done
