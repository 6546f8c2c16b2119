(* A job: one self-contained unit of checking/simulation work, the
   common currency of the one-shot CLIs and the pmc_serve daemon.

   Each variant captures *by value* everything its run depends on — the
   litmus program name, the annotated source text, the full case
   geometry, the chaos seed — so [Run.run] is a pure function of the
   job (plus the budget) and a job's canonical JSON encoding is a sound
   cache key: two equal encodings denote the same verdict, bit for bit.
   Nothing here reads the filesystem or the clock. *)

module Json = Pmc_bench.Json

type litmus = {
  program : string;        (* a standard litmus program, by name *)
  models : string list;    (* [] = every model *)
  limit : int option;      (* state-space budget override *)
}

type check = {
  name : string;           (* reporting name (the CLI passes the path) *)
  source : string;         (* annotated-program text ({!Pmc_compile.Parse}) *)
}

type bench = {
  app : string;
  backend : string;
  topology : string;       (* fabric name ("star", "mesh:4x4", ...) *)
  cores : int;
  scale : int;
  unbatched : bool;
  warmup : int;
  repeat : int;
}

type chaos = {
  c_app : string;
  c_backend : string;
  c_topology : string;
  c_cores : int;
  c_scale : int;
  seed : int;
  intensity : float;
}

(* The power-cut cycle is a pure function of (seed, window)
   ([Pmc_sim.Fault.power_cut_cycle]), so carrying the window by value —
   instead of re-learning it from a twin run at execution time — keeps
   the cut deterministic from the encoding alone: cache-key
   soundness. *)
type crash = {
  x_app : string;
  x_backend : string;
  x_topology : string;
  x_cores : int;
  x_scale : int;
  x_seed : int;
  x_window : int;         (* cut window in cycles (> 0) *)
  x_log : bool;           (* redo log armed; false = tearable debug mode *)
}

type t =
  | Litmus of litmus
  | Check of check
  | Bench of bench
  | Chaos of chaos
  | Crash of crash

let kind_name = function
  | Litmus _ -> "litmus"
  | Check _ -> "check"
  | Bench _ -> "bench"
  | Chaos _ -> "chaos"
  | Crash _ -> "chaos-crash"

(* ---------------- JSON ----------------

   Field order is fixed by construction, so [to_json] is canonical: the
   compact rendering of equal jobs is equal, which is what the verdict
   cache keys on. *)

let opt_int = function None -> Json.Null | Some n -> Json.int n

let to_json (t : t) : Json.t =
  match t with
  | Litmus l ->
      Json.Obj
        [
          ("kind", Json.Str "litmus");
          ("program", Json.Str l.program);
          ("models", Json.List (List.map (fun m -> Json.Str m) l.models));
          ("limit", opt_int l.limit);
        ]
  | Check c ->
      Json.Obj
        [
          ("kind", Json.Str "check");
          ("name", Json.Str c.name);
          ("source", Json.Str c.source);
        ]
  | Bench b ->
      Json.Obj
        [
          ("kind", Json.Str "bench");
          ("app", Json.Str b.app);
          ("backend", Json.Str b.backend);
          ("topology", Json.Str b.topology);
          ("cores", Json.int b.cores);
          ("scale", Json.int b.scale);
          ("unbatched", Json.Bool b.unbatched);
          ("warmup", Json.int b.warmup);
          ("repeat", Json.int b.repeat);
        ]
  | Chaos c ->
      Json.Obj
        [
          ("kind", Json.Str "chaos");
          ("app", Json.Str c.c_app);
          ("backend", Json.Str c.c_backend);
          ("topology", Json.Str c.c_topology);
          ("cores", Json.int c.c_cores);
          ("scale", Json.int c.c_scale);
          ("seed", Json.int c.seed);
          ("intensity", Json.float c.intensity);
        ]
  | Crash c ->
      Json.Obj
        [
          ("kind", Json.Str "chaos-crash");
          ("app", Json.Str c.x_app);
          ("backend", Json.Str c.x_backend);
          ("topology", Json.Str c.x_topology);
          ("cores", Json.int c.x_cores);
          ("scale", Json.int c.x_scale);
          ("seed", Json.int c.x_seed);
          ("window", Json.int c.x_window);
          ("log", Json.Bool c.x_log);
        ]

let fail msg = failwith ("Pmc_jobs.Job: malformed job: " ^ msg)
let req what = function Some v -> v | None -> fail ("missing " ^ what)

(* Jobs encoded before fabrics existed carry no topology field; they all
   ran on the star fabric, so defaulting keeps old encodings meaning
   exactly what they meant (verdict-cache soundness). *)
let get_topology j =
  Option.value ~default:"star" (Json.get_str "topology" j)

let get_opt_int key j =
  match Json.member key j with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.to_int v with
      | Some n -> Some n
      | None -> fail (key ^ " must be an integer or null"))

let of_json (j : Json.t) : t =
  match req "kind" (Json.get_str "kind" j) with
  | "litmus" ->
      let models =
        match Json.get_list "models" j with
        | None -> []
        | Some l ->
            List.map (fun m -> req "model name" (Json.to_str m)) l
      in
      Litmus
        {
          program = req "program" (Json.get_str "program" j);
          models;
          limit = get_opt_int "limit" j;
        }
  | "check" ->
      Check
        {
          name = req "name" (Json.get_str "name" j);
          source = req "source" (Json.get_str "source" j);
        }
  | "bench" ->
      Bench
        {
          app = req "app" (Json.get_str "app" j);
          backend = req "backend" (Json.get_str "backend" j);
          topology = get_topology j;
          cores = req "cores" (Json.get_int "cores" j);
          scale = req "scale" (Json.get_int "scale" j);
          unbatched = req "unbatched" (Json.get_bool "unbatched" j);
          warmup = req "warmup" (Json.get_int "warmup" j);
          repeat = req "repeat" (Json.get_int "repeat" j);
        }
  (* older chaos and crash encodings carry two more fields, opt-outs of
     the model replay that no longer exist; decoding ignores them, so
     such a job now runs judged *)
  | "chaos" ->
      Chaos
        {
          c_app = req "app" (Json.get_str "app" j);
          c_backend = req "backend" (Json.get_str "backend" j);
          c_topology = get_topology j;
          c_cores = req "cores" (Json.get_int "cores" j);
          c_scale = req "scale" (Json.get_int "scale" j);
          seed = req "seed" (Json.get_int "seed" j);
          intensity = req "intensity" (Json.get_num "intensity" j);
        }
  | "chaos-crash" ->
      Crash
        {
          x_app = req "app" (Json.get_str "app" j);
          x_backend = req "backend" (Json.get_str "backend" j);
          x_topology = get_topology j;
          x_cores = req "cores" (Json.get_int "cores" j);
          x_scale = req "scale" (Json.get_int "scale" j);
          x_seed = req "seed" (Json.get_int "seed" j);
          x_window = req "window" (Json.get_int "window" j);
          x_log = req "log" (Json.get_bool "log" j);
        }
  | k -> fail ("unknown kind " ^ k)

let key t = Json.to_compact (to_json t)

let pp ppf t =
  match t with
  | Litmus l -> Fmt.pf ppf "litmus %s" l.program
  | Check c -> Fmt.pf ppf "check %s" c.name
  | Bench b ->
      let topo = if b.topology = "star" then "" else "/" ^ b.topology in
      Fmt.pf ppf "bench %s/%s%s/c%d/s%d" b.app b.backend topo b.cores b.scale
  | Chaos c ->
      let topo = if c.c_topology = "star" then "" else "/" ^ c.c_topology in
      Fmt.pf ppf "chaos %s/%s%s/c%d/s%d seed=%d" c.c_app c.c_backend topo
        c.c_cores c.c_scale c.seed
  | Crash c ->
      let topo = if c.x_topology = "star" then "" else "/" ^ c.x_topology in
      Fmt.pf ppf "crash %s/%s%s/c%d/s%d seed=%d%s" c.x_app c.x_backend topo
        c.x_cores c.x_scale c.x_seed
        (if c.x_log then "" else " no-log")
