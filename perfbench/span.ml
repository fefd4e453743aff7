(* The benchmark's own span recorder.

   A span wraps one call (or a counted batch of calls) into a layer's
   public function.  Spans are kept in memory with their true start time,
   their parent span and the Gc words allocated inside them; self time is
   the span's duration minus the durations of its direct children.  When
   recording is off, [run] is a plain call, so the same workload code
   serves both the timed (untraced) and the traced windows. *)

module Timer = Fpva_util.Timer

type t = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  calls : int;  (** calls covered by the span (batched micro-probes) *)
  start : float;  (** seconds since the recorder's origin *)
  dur : float;
  words : float;  (** Gc words allocated inside the span *)
}

let enabled = ref false
let origin = Timer.now ()
let recorded : t list ref = ref []
let next_id = ref 0

(* Open spans, innermost first: (id, start, words at start). *)
let stack : (int * float * float) list ref = ref []

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let run ?(calls = 1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with (p, _, _) :: _ -> p | [] -> -1 in
    let w0 = words () in
    let t0 = Timer.now () in
    stack := (id, t0, w0) :: !stack;
    let finish () =
      let dur = Timer.elapsed t0 in
      let w = words () -. w0 in
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      recorded :=
        { id; parent; name; calls; start = t0 -. origin; dur; words = w }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let all () = List.rev !recorded

(* Self time of every span: its duration minus its direct children's. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.dur +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, s.dur -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

let named name = List.filter (fun s -> s.name = name) (all ())

(* Per-call durations of every span with this name. *)
let per_call name =
  List.map (fun s -> s.dur /. float_of_int (max 1 s.calls)) (named name)

let per_call_words name =
  List.map (fun s -> s.words /. float_of_int (max 1 s.calls)) (named name)

let total name = List.fold_left (fun acc s -> acc +. s.dur) 0.0 (named name)

let total_words name =
  List.fold_left (fun acc s -> acc +. s.words) 0.0 (named name)

(* The layer of a span is its name up to the first dot. *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let self_by_layer () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      Hashtbl.replace tbl l
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
    (self_times (all ()));
  tbl

let to_json (s, self) =
  let module Json = Fpva_serve.Json in
  Json.Obj
    [ ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("name", Json.String s.name);
      ("calls", Json.Int s.calls);
      ("start_s", Json.Float s.start);
      ("dur_s", Json.Float s.dur);
      ("self_s", Json.Float self);
      ("words", Json.Float s.words) ]

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun x ->
          output_string oc (Fpva_serve.Json.to_string (to_json x));
          output_char oc '\n')
        (self_times (all ())))
