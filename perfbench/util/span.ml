type span = {
  id : int;
  parent : int;
  group : int;
  layer : string;
  name : string;
  start : float;
  stop : float;
}

type t = {
  on : bool;
  m : Mutex.t;
  mutable next : int;
  mutable spans : span list;  (* newest first *)
}

let create ~on = { on; m = Mutex.create (); next = 0; spans = [] }
let enabled t = t.on

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let record t ?(parent = -1) ?(group = -1) ~layer ~name f =
  if not t.on then f (-1)
  else begin
    let id =
      locked t (fun () ->
          let id = t.next in
          t.next <- id + 1;
          id)
    in
    let start = Unix.gettimeofday () in
    let finish () =
      let s =
        { id; parent; group; layer; name; start; stop = Unix.gettimeofday () }
      in
      locked t (fun () -> t.spans <- s :: t.spans)
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let spans t = locked t (fun () -> List.rev t.spans)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self =
        s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids
      in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer []
  |> List.sort compare

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_jsonl oc spans =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"group\":%d,\"layer\":%s,\"name\":%s,\"start\":%.6f,\"stop\":%.6f}\n"
        s.id s.parent s.group (json_string s.layer) (json_string s.name)
        s.start s.stop)
    spans
