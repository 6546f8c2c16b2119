(** In-memory spans recorded around each call into a layer.

    A span has a name, the layer it times, a start, an end, a parent (the
    span that caused it, [-1] for a root) and a group id shared by every
    span of one serve request ([-1] elsewhere).  Spans stay in memory and
    are written out when the run ends.  Recording is thread-safe. *)

type span = {
  id : int;
  parent : int;
  group : int;
  layer : string;
  name : string;
  start : float;  (** [Unix.gettimeofday] seconds *)
  stop : float;
}

type t

val create : on:bool -> t
(** [on:false] records nothing: {!record} then only calls its body. *)

val enabled : t -> bool

val record :
  t -> ?parent:int -> ?group:int -> layer:string -> name:string ->
  (int -> 'a) -> 'a
(** [record t ~layer ~name f] runs [f id] inside a new span and records
    it when [f] returns or raises; [id] is the parent to give the span's
    children ([-1] when [t] is off). *)

val spans : t -> span list
(** Every finished span, oldest first. *)

val covered : lo:float -> hi:float -> (float * float) list -> float
(** Length of the union of the intervals, each clipped to [\[lo, hi\]]. *)

val self_times : span list -> (string * float) list
(** Per layer, sorted by name: the summed self time of its spans — a
    span's duration minus the part of it that its children cover. *)

val json_string : string -> string
(** A JSON string literal. *)

val write_jsonl : out_channel -> span list -> unit
(** One JSON object per span and line. *)
