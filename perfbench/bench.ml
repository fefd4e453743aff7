(* The fpva benchmark: one executable, four workloads, one result line.

     bench.exe --workload generate|campaign|diagnose|serve --seed N
               --seconds S --trace 0|1 --cli PATH [--tiny]
               [--nproc N] [--commit SHA]

   Every run executes all four sections (generate, campaign, diagnose,
   serve) so that every metric exists on every workload.  The section
   named by --workload is the focus: it runs at paper scale for
   --seconds; the other sections run on the 5x5 companion suite.
   --trace 0 prints the end-to-end metrics.  --trace 1 runs every section
   untraced and then traced (for the tracing overhead), probes each layer
   directly, and prints the per-layer metrics.  README.md lists every
   metric with its unit. *)

open Fpva_grid
open Fpva_testgen
module Campaign = Fpva_sim.Campaign
module Checkpoint = Fpva_sim.Checkpoint
module Diagnosis = Fpva_sim.Diagnosis
module Sequential = Fpva_sim.Diagnosis.Sequential
module Fault = Fpva_sim.Fault
module Lifetime = Fpva_sim.Lifetime
module Measurement = Fpva_sim.Measurement
module Simulator = Fpva_sim.Simulator
module Journal = Fpva_util.Journal
module Rng = Fpva_util.Rng
module Stats = Fpva_util.Stats
module Timer = Fpva_util.Timer
module Json = Fpva_serve.Json
module Protocol = Fpva_serve.Protocol
module Client = Fpva_serve.Client

(* ---------- options ---------- *)

type workload = Generate | Campaign_w | Diagnose | Serve

let workload_of_string = function
  | "generate" -> Some Generate
  | "campaign" -> Some Campaign_w
  | "diagnose" -> Some Diagnose
  | "serve" -> Some Serve
  | _ -> None

let workload_name = function
  | Generate -> "generate"
  | Campaign_w -> "campaign"
  | Diagnose -> "diagnose"
  | Serve -> "serve"

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test scale: every section on small arrays *)
  cli : string;
  nproc : int;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload generate|campaign|diagnose|serve --seed N \
     --seconds S --trace 0|1 --cli PATH [--tiny] [--nproc N] [--commit SHA]";
  exit 2

let parse_opts () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | "--tiny" :: rest ->
      Hashtbl.replace tbl "tiny" "1";
      go rest
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload =
    match workload_of_string (get "workload") with
    | Some w -> w
    | None -> usage ()
  in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  { workload;
    seed = int "seed";
    seconds = float_of_int (max 1 (int "seconds"));
    trace;
    tiny = Hashtbl.mem tbl "tiny";
    cli = get "cli";
    nproc =
      (match Hashtbl.find_opt tbl "nproc" with
      | Some v -> Option.value ~default:1 (int_of_string_opt v)
      | None -> 1);
    commit = Option.value ~default:"unknown" (Hashtbl.find_opt tbl "commit") }

(* ---------- results and checks ---------- *)

let metrics : (string * (float * string)) list ref = ref []
let samples : (string * Json.t) list ref = ref []
let put name unit value = metrics := (name, (value, unit)) :: !metrics

let median xs = Stats.percentile (Array.of_list xs) 50.0

(* Inter-quartile range over the median. *)
let spread xs =
  let m = median xs in
  if List.length xs < 4 || m = 0.0 then 0.0
  else
    let a = Array.of_list xs in
    (Stats.percentile a 75.0 -. Stats.percentile a 25.0) /. Float.abs m

(* A timing metric: its median, with the sample count and spread kept for
   the detail line. *)
let put_median name unit xs =
  put name unit (median xs);
  samples :=
    ( name,
      Json.Obj
        [ ("n", Json.Int (List.length xs)); ("spread", Json.Float (spread xs)) ]
    )
    :: !samples

let attempted = ref 0
let failed = ref 0
let failures = ref []

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    failures := what :: !failures;
    Printf.eprintf "check failed: %s\n%!" what
  end

let gb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e9

(* ---------- scratch directory ---------- *)

let out_dir = ".perfbench"
let tmp_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ()))
let tmp name = Filename.concat tmp_dir name

let mkdir_p dir = try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let remove_tmp () =
  if Sys.file_exists tmp_dir then begin
    Array.iter (fun f -> try Sys.remove (tmp f) with Sys_error _ -> ())
      (Sys.readdir tmp_dir);
    try Unix.rmdir tmp_dir with Unix.Unix_error _ -> ()
  end

(* ---------- sizes ---------- *)

type sizes = {
  gen_layouts : (unit -> Fpva.t) list;  (** generate focus *)
  campaign_layout : unit -> Fpva.t;  (** campaign focus suite *)
  diagnose_layout : unit -> Fpva.t;  (** diagnose focus suite *)
  serve_layouts : (unit -> Fpva.t) list;  (** serve focus: cold layouts *)
  companion_layout : unit -> Fpva.t;  (** every non-focus section *)
  setups : int;
  companion_window : float;
  ideal_trials : int;  (** per fault count; a multiple of 252 (one shard) *)
  noisy_trials : int;
  companion_trials : int;
  chips : int;
}

let paper n () = Layouts.paper_array n

let sizes tiny =
  if tiny then
    { gen_layouts = [ paper 4 ];
      campaign_layout = paper 4;
      diagnose_layout = paper 4;
      serve_layouts = [ paper 5 ];
      companion_layout = paper 5;
      setups = 1;
      companion_window = 0.3;
      ideal_trials = 252;
      noisy_trials = 10;
      companion_trials = 252;
      chips = 200 }
  else
    { gen_layouts = [ paper 20; paper 30; Layouts.figure9 ];
      campaign_layout = paper 15;
      diagnose_layout = paper 10;
      serve_layouts = [ paper 4; paper 5; paper 6 ];
      companion_layout = paper 5;
      setups = 3;
      companion_window = 6.0;
      ideal_trials = 4032;
      noisy_trials = 60;
      companion_trials = 2016;
      chips = 2000 }

(* ---------- generation ---------- *)

let generate_suite what fpva =
  let r = Span.run "pipeline.run" (fun () -> Pipeline.run_exn fpva) in
  check (what ^ ": suite_ok") (Pipeline.suite_ok r);
  check (what ^ ": no degraded stage") (not (Pipeline.degraded r));
  check
    (what ^ ": every valve covered")
    (r.Pipeline.uncovered_flow = [] && r.Pipeline.uncovered_cut = []);
  r

let dims fpva = Printf.sprintf "%dx%d" (Fpva.rows fpva) (Fpva.cols fpva)

(* ---------- serve plumbing ---------- *)

type server = { pid : int; sock : string }

let live_servers : int list ref = ref []

(* A client connection that reads each one-line response into a reused
   buffer, so the warm loop allocates nothing on the bench side. *)
type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock)
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create 65536; len = 0 }

let disconnect c = Unix.close c.fd

let envelope request =
  { Protocol.id = None; deadline_ms = None; idempotency_key = None; request }

let frame request =
  Json.to_string (Protocol.request_to_json (envelope request)) ^ "\n"

(* Send one newline-terminated frame and read the one-line answer into
   [c.buf] (closed loop: nothing else is in flight).  [c.len] is the
   answer's length without the newline. *)
let send c line =
  let n = String.length line in
  let rec write off =
    if off < n then write (off + Unix.write_substring c.fd line off (n - off))
  in
  write 0;
  let rec read off =
    if off = Bytes.length c.buf then begin
      let bigger = Bytes.create (2 * off) in
      Bytes.blit c.buf 0 bigger 0 off;
      c.buf <- bigger
    end;
    let got = Unix.read c.fd c.buf off (Bytes.length c.buf - off) in
    if got = 0 then failwith "serve: connection closed";
    let off = off + got in
    if Bytes.get c.buf (off - 1) = '\n' then c.len <- off - 1 else read off
  in
  read 0

let reply c = Bytes.sub_string c.buf 0 c.len
let exchange c line = send c line; reply c

(* Is the last answer byte-equal to [s]? *)
let reply_is c s =
  c.len = String.length s
  &&
  let rec eq i = i = c.len || (Bytes.get c.buf i = s.[i] && eq (i + 1)) in
  eq 0

let server_counter = ref 0

(* Spawn [fpva serve] on a socket inside the scratch directory (a relative
   path keeps it short) and wait until it answers a ping. *)
let start_server opts =
  incr server_counter;
  let sock = tmp (Printf.sprintf "s%d.sock" !server_counter) in
  let log =
    Unix.openfile (tmp "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let argv =
    [| opts.cli; "serve"; "--socket"; sock; "--workers";
       string_of_int (max 1 opts.nproc) |]
  in
  let pid = Unix.create_process opts.cli argv Unix.stdin log log in
  Unix.close log;
  live_servers := pid :: !live_servers;
  let t0 = Timer.now () in
  let rec wait () =
    match connect sock with
    | c ->
      let reply = exchange c (frame Protocol.Ping) in
      disconnect c;
      reply
    | exception Unix.Unix_error _ when Timer.elapsed t0 < 20.0 ->
      Unix.sleepf 0.005;
      wait ()
  in
  let reply = wait () in
  check "serve: ping answered"
    (match Json.parse reply with Ok j -> Protocol.response_ok j | Error _ -> false);
  { pid; sock }

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] s.pid in
  live_servers := List.filter (( <> ) s.pid) !live_servers;
  check "serve: daemon drained and exited 0" (status = Unix.WEXITED 0)

let kill_live_servers () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_servers;
  live_servers := []

(* ---------- set-up ---------- *)

type fixture = {
  companion : Pipeline.t;  (** the 5x5 suite every non-focus section uses *)
  main : Pipeline.t option;  (** campaign / diagnose focus suite *)
  gen_seconds : float;  (** Pipeline.run time spent in this set-up *)
  gen_vectors : int;
  focus_layouts : Fpva.t list;  (** generate focus layouts, built *)
  server : server option ref;  (** serve: started in set-up, used once *)
}

let setup opts (sz : sizes) =
  Span.run "setup.run" (fun () ->
      let focus_layouts =
        match opts.workload with
        | Generate -> List.map (fun f -> f ()) sz.gen_layouts
        | _ -> []
      in
      let companion, t_comp =
        Timer.time (fun () -> generate_suite "companion" (sz.companion_layout ()))
      in
      let main what layout =
        let r, t = Timer.time (fun () -> generate_suite what (layout ())) in
        (Some r, t)
      in
      let main, t_main =
        match opts.workload with
        | Campaign_w -> main "campaign" sz.campaign_layout
        | Diagnose -> main "diagnose" sz.diagnose_layout
        | Generate | Serve -> (None, 0.0)
      in
      let server =
        match opts.workload with
        | Serve -> Some (Span.run "serve.start" (fun () -> start_server opts))
        | _ -> None
      in
      { companion;
        main;
        gen_seconds = t_comp +. t_main;
        gen_vectors =
          companion.Pipeline.total
          + (match main with Some r -> r.Pipeline.total | None -> 0);
        focus_layouts;
        server = ref server })

let teardown fx =
  Option.iter stop_server !(fx.server);
  fx.server := None

(* ---------- sections ---------- *)

(* One measured quantity of a section: its samples, and whether lower is
   better (for the tracing-overhead comparison). *)
type sample = { name : string; unit : string; values : float list; lower : bool }

let sample ?(lower = true) name unit values = { name; unit; values; lower }

type section_out = {
  out : sample list;
  alloc_words : float;  (** Gc words of one round of the section *)
}

(* An operation timed in rounds, sharing the run's window with others. *)
type op = {
  oname : string;  (** span name of one round *)
  calls : int;  (** calls per round, for per-call span times *)
  share : float;  (** seconds of the window it gets *)
  run_round : unit -> unit;
  mutable spent : float;
  mutable rounds_done : (float * float) list;  (** (seconds, words) *)
}

(* [f k] runs round [k]; the second result reads back the last round's
   index and value. *)
let op ?(calls = 1) name share f =
  let last = ref None and k = ref 0 in
  ( { oname = name;
      calls;
      share;
      run_round =
        (fun () ->
          last := Some (!k, f !k);
          incr k);
      spent = 0.0;
      rounds_done = [] },
    fun () -> Option.get !last )

(* Rounds of every operation interleaved for [seconds]: the next round
   goes to the operation furthest behind its share, so each operation's
   rounds are spread over the whole window and a burst of machine noise
   lands on all of them alike.  Calls may be repeated to spread one
   window over several pieces; every operation runs at least once. *)
let interleave ~seconds ops =
  let behind o = o.spent /. o.share in
  let t0 = Timer.now () in
  let rec go () =
    let started = List.for_all (fun o -> o.rounds_done <> []) ops in
    if ops <> [] && not (started && Timer.elapsed t0 >= seconds) then begin
      let o =
        List.fold_left (fun a o -> if behind o < behind a then o else a)
          (List.hd ops) ops
      in
      let w0 = Span.words () in
      let (), dt =
        Timer.time (fun () -> Span.run ~calls:o.calls o.oname o.run_round)
      in
      o.spent <- o.spent +. dt;
      o.rounds_done <- (dt, Span.words () -. w0) :: o.rounds_done;
      go ()
    end
  in
  go ()

let op_seconds o = List.rev_map fst o.rounds_done
let op_words o = median (List.map snd o.rounds_done)

(* A section prepared as operations for the shared window, and finished
   (checks and samples) after it. *)
type section = { ops : op list; finish : unit -> section_out }

(* Values the per-layer report reads back from the traced sections. *)
let last_noisy : Campaign.noise_result option ref = ref None
let last_lifetime : Lifetime.result option ref = ref None
let last_dictionary : (Pipeline.t * Diagnosis.dictionary) option ref = ref None
let last_stats : Json.t option ref = ref None
let last_warm_frame : string option ref = ref None
let last_warm_tail = ref (0.0, 0.0)
let shard_record_bytes = ref 0
let campaign_suite : Pipeline.t option ref = ref None

let campaign_config ~seed trials =
  { Campaign.default_config with
    Campaign.trials;
    fault_counts = [ 1; 2; 3; 4; 5 ];
    seed }

(* Round [k] of a seeded operation draws from seed [Rng.mix seed k], so a
   run's median covers several draws, not one. *)
let campaign_section (suite : Pipeline.t) ~seed ~seconds ~ideal_trials
    ~noisy_trials =
  campaign_suite := Some suite;
  let fpva = suite.Pipeline.fpva and vectors = suite.Pipeline.vectors in
  let config k = campaign_config ~seed:(Rng.mix seed k) ideal_trials in
  let noise_config k =
    { Campaign.base = campaign_config ~seed:(Rng.mix seed k) noisy_trials;
      noise_levels = [ 0.02 ];
      repeats = 3 }
  in
  let path = tmp "campaign.ckpt" in
  let third = seconds /. 3.0 in
  let escapes = ref [] in
  let ideal, _ =
    op "campaign.ideal" third (fun k ->
        let r = Campaign.run ~config:(config k) fpva ~vectors in
        List.iter
          (fun row ->
            if row.Campaign.escapes <> []
               || row.Campaign.detected <> Campaign.effective_trials row
            then escapes := row.Campaign.fault_count :: !escapes)
          r.Campaign.rows)
  in
  let noisy, last_noisy_r =
    op "campaign.noisy" third (fun k ->
        Campaign.run_noisy ~config:(noise_config k) fpva ~vectors)
  in
  let journaled, last_journaled =
    op "campaign.journaled" third (fun k ->
        let config = config k in
        let key = Campaign.checkpoint_key config fpva ~vectors in
        match Checkpoint.open_ ~path ~resume:false ~key () with
        | Error e -> failwith (Checkpoint.open_error_to_string e)
        | Ok ck ->
          let r = Campaign.run ~config ~checkpoint:ck fpva ~vectors in
          Checkpoint.close ck;
          r)
  in
  let finish () =
    check
      (Printf.sprintf "campaign %s: ideal detects every trial" (dims fpva))
      (!escapes = []);
    let _, n = last_noisy_r () in
    last_noisy := Some n;
    check "campaign: noisy rows complete"
      (n.Campaign.n_truncated = [] && List.length n.Campaign.noise_rows = 5);
    let k, j = last_journaled () in
    check "campaign: journaled rows equal ideal rows"
      (Protocol.rendered_rows j
      = Protocol.rendered_rows (Campaign.run ~config:(config k) fpva ~vectors));
    (match Journal.recover path with
    | Ok { Journal.records = _ :: shard :: _; _ } ->
      shard_record_bytes := String.length shard
    | Ok _ | Error _ -> check "campaign: checkpoint journal readable" false);
    (* The batched kernel against the scalar reference at a small count. *)
    let small = campaign_config ~seed 252 in
    let batched = Campaign.run ~config:small fpva ~vectors in
    let scalar =
      Campaign.run ~config:small ~kernel:Campaign.Scalar fpva ~vectors
    in
    check "campaign: batched rows equal scalar rows"
      (Protocol.rendered_rows batched = Protocol.rendered_rows scalar);
    let rate t o = List.map (fun dt -> float_of_int (5 * t) /. dt) (op_seconds o) in
    { out =
        [ sample ~lower:false "campaign_trials_per_s" "1/s" (rate ideal_trials ideal);
          sample ~lower:false "noisy_trials_per_s" "1/s" (rate noisy_trials noisy);
          sample ~lower:false "journaled_trials_per_s" "1/s"
            (rate ideal_trials journaled) ];
      alloc_words = op_words ideal +. op_words noisy +. op_words journaled }
  in
  { ops = [ ideal; noisy; journaled ]; finish }

let diagnose_section (suite : Pipeline.t) ~seed ~seconds ~chips =
  let fpva = suite.Pipeline.fpva and vectors = suite.Pipeline.vectors in
  let faults = Diagnosis.single_faults fpva in
  let dict = Diagnosis.build fpva ~vectors ~faults in
  let build, _ =
    op "diagnosis.build" (0.2 *. seconds) (fun _ ->
        Diagnosis.build fpva ~vectors ~faults)
  in
  let sweep, last_sweep =
    op "sequential.sweep" (0.4 *. seconds) (fun _ -> Sequential.sweep dict)
  in
  let life, last_life =
    op "lifetime.run" (0.4 *. seconds) (fun k ->
        let config =
          { Lifetime.default_config with
            Lifetime.chips;
            noise = 0.02;
            repeats = 3;
            seed = Rng.mix seed k }
        in
        Lifetime.run ~config fpva ~vectors)
  in
  let finish () =
    last_dictionary := Some (suite, dict);
    let _, sw = last_sweep () in
    check
      (Printf.sprintf "diagnose %s: sequential sweep agrees with diagnose"
         (dims fpva))
      (sw.Sequential.all_agree && sw.Sequential.sessions = List.length faults);
    let _, l = last_life () in
    last_lifetime := Some l;
    check "diagnose: lifetime fielded every chip"
      (List.length l.Lifetime.chips = chips && l.Lifetime.total_reads > 0);
    let per_s n o = List.map (fun dt -> float_of_int n /. dt) (op_seconds o) in
    { out =
        [ sample "dictionary_build_s" "s" (op_seconds build);
          sample ~lower:false "sequential_sessions_per_s" "1/s"
            (per_s sw.Sequential.sessions sweep);
          sample "mean_reads" "count" [ sw.Sequential.mean_reads ];
          sample ~lower:false "lifetime_chips_per_s" "1/s" (per_s chips life) ];
      alloc_words = op_words build +. op_words sweep +. op_words life }
  in
  { ops = [ build; sweep; life ]; finish }

let cached j =
  Option.bind (Protocol.response_result j) (Json.get_bool "cached")

let suite_text j = Option.bind (Protocol.response_result j) (Json.get_string "suite")

let warm_chunk = 200

(* Cold generate requests for [layouts] (each with its in-process
   reference suite) are sent at once, [cold_rounds] times: every round but
   the last on a daemon of its own, so every round meets an empty cache.
   Warm requests, spread over the layouts by the seed, then go out in
   chunks through the shared window, all over one connection; one [stats]
   request closes the section.  A request's latency runs from writing the
   frame to reading the whole answer line. *)
let serve_section server ~start (layouts : (Fpva.t * Pipeline.t) list) ~seed
    ~seconds ~cold_rounds =
  let frames =
    Array.of_list
      (List.map
         (fun (fpva, _) ->
           frame
             (Protocol.Generate
                { layout = Render.plain fpva; gen = Protocol.default_gen_options }))
         layouts)
  in
  let expected =
    Array.of_list
      (List.map
         (fun (_, r) -> Some (Suite_io.to_string r.Pipeline.fpva r.Pipeline.vectors))
         layouts)
  in
  let call c line = Json.parse (exchange c line) in
  let cold_pass c =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun i line ->
           let answer, dt =
             Timer.time (fun () -> Span.run "serve.cold" (fun () -> call c line))
           in
           (match answer with
           | Ok j when Protocol.response_ok j ->
             check "serve: cold request was a cache miss" (cached j = Some false);
             check "serve: cold suite equals Pipeline.run"
               (suite_text j = expected.(i))
           | Ok _ | Error _ -> check "serve: cold response ok" false);
           dt)
         frames)
  in
  let cold_elsewhere =
    List.init (cold_rounds - 1) (fun _ ->
        let s = start () in
        let c = connect s.sock in
        let t = cold_pass c in
        disconnect c;
        stop_server s;
        t)
  in
  let c = connect server.sock in
  let w0 = Span.words () in
  let cold = cold_elsewhere @ [ cold_pass c ] in
  (* The first warm answer per layout is parsed and checked; every later
     one must be byte-identical to it. *)
  let warm_frames =
    Array.mapi
      (fun i line ->
        let answer = exchange c line in
        (match Json.parse answer with
        | Ok j
          when Protocol.response_ok j && cached j = Some true
               && suite_text j = expected.(i) -> ()
        | Ok _ | Error _ -> check "serve: first warm answer ok" false);
        answer)
      frames
  in
  last_warm_frame := Some warm_frames.(0);
  let cold_words = Span.words () -. w0 in
  let rng = Rng.create seed in
  let chunks = ref [] and hits = ref 0 and same = ref 0 in
  let warm, _ =
    op ~calls:warm_chunk "serve.warm" seconds (fun _ ->
        let lat = Array.make warm_chunk 0.0 in
        for k = 0 to warm_chunk - 1 do
          let i = Rng.int rng (Array.length frames) in
          let t0 = Timer.now () in
          send c frames.(i);
          lat.(k) <- Timer.elapsed t0;
          if reply_is c warm_frames.(i) then incr same
        done;
        hits := !hits + warm_chunk;
        chunks := lat :: !chunks)
  in
  let finish () =
    check "serve: every warm answer hit the cache with the same suite"
      (!same = !hits);
    disconnect c;
    let client =
      { (Client.default_config (Protocol.Unix_sock server.sock)) with
        Client.retries = 0 }
    in
    (match
       Span.run "serve.stats" (fun () -> Client.call client (envelope Protocol.Stats))
     with
    | Ok j when Protocol.response_ok j -> last_stats := Protocol.response_result j
    | _ -> check "serve: stats answered" false);
    let ms = Array.map (fun s -> 1000.0 *. s) (Array.concat !chunks) in
    last_warm_tail := (Stats.percentile ms 90.0, Stats.percentile ms 99.0);
    { out =
        [ sample "serve_cold_s" "s" cold;
          sample "serve_warm_p50_ms" "ms" (Array.to_list ms) ];
      alloc_words = cold_words +. op_words warm }
  in
  { ops = [ warm ]; finish }

(* Run every section: the focus one at full size for [seconds], the others
   on the companion suite.  The campaign, diagnose and serve operations
   share one interleaved window, cut into pieces by the run's other timed
   work ([chores]: further set-ups, and on the generate workload the
   Pipeline.run of each array), so that every operation's rounds are
   spread over the whole run.  The heap is compacted before each piece so
   every piece starts from the same Gc state. *)
let run_sections opts sz fx ~chores =
  let comp = fx.companion in
  let focus w = opts.workload = w in
  let slice = sz.companion_window /. 3.0 in
  let seconds w = if focus w then opts.seconds else slice in
  let suite w =
    match fx.main with Some m when focus w -> m | _ -> comp
  in
  let campaign =
    let ti, tn =
      if focus Campaign_w then (sz.ideal_trials, sz.noisy_trials)
      else (sz.companion_trials, max 10 (sz.noisy_trials / 3))
    in
    campaign_section (suite Campaign_w) ~seed:opts.seed
      ~seconds:(seconds Campaign_w) ~ideal_trials:ti ~noisy_trials:tn
  in
  let diagnose =
    diagnose_section (suite Diagnose) ~seed:opts.seed
      ~seconds:(seconds Diagnose) ~chips:sz.chips
  in
  (* Cold requests need an empty cache: only the first serve section
     uses the set-up's daemon, later ones start their own. *)
  let server =
    match !(fx.server) with
    | Some s ->
      fx.server := None;
      s
    | None -> Span.run "serve.start" (fun () -> start_server opts)
  in
  let serve_layouts =
    if focus Serve then
      List.map
        (fun f ->
          let fpva = f () in
          ( fpva,
            if dims fpva = dims comp.Pipeline.fpva then comp
            else
              Span.run "serve.reference" (fun () ->
                  generate_suite ("serve reference " ^ dims fpva) fpva) ))
        sz.serve_layouts
    else [ (comp.Pipeline.fpva, comp) ]
  in
  (* A companion's single small cold request is too short to be steady
     alone: it takes the median of three. *)
  let serve =
    Span.run "serve.prepare" (fun () ->
        serve_section server serve_layouts ~seed:opts.seed
          ~seconds:(seconds Serve)
          ~cold_rounds:(if focus Serve then 1 else 3)
          ~start:(fun () -> Span.run "serve.start" (fun () -> start_server opts)))
  in
  let sections = [ (Campaign_w, campaign); (Diagnose, diagnose); (Serve, serve) ] in
  let gen_seconds = ref 0.0 and gen_words = ref 0.0 and vectors = ref 0 in
  let generate fpva () =
    let w0 = Span.words () in
    let r, dt =
      Timer.time (fun () ->
          Span.run "round.generate" (fun () ->
              generate_suite ("generate " ^ dims fpva) fpva))
    in
    gen_seconds := !gen_seconds +. dt;
    gen_words := !gen_words +. (Span.words () -. w0);
    vectors := !vectors + r.Pipeline.total
  in
  let chores =
    chores @ if focus Generate then List.map generate fx.focus_layouts else []
  in
  let ops = List.concat_map (fun (_, s) -> s.ops) sections in
  let piece =
    List.fold_left (fun acc o -> acc +. o.share) 0.0 ops
    /. float_of_int (List.length chores + 1)
  in
  let window () =
    Gc.compact ();
    Span.run "section.window" (fun () -> interleave ~seconds:piece ops)
  in
  List.iter (fun chore -> window (); chore ()) chores;
  window ();
  let outs = List.map (fun (w, s) -> (w, s.finish ())) sections in
  stop_server server;
  if focus Generate then
    ( Generate,
      { out =
          [ sample "generate_s" "s" [ !gen_seconds ];
            sample "vectors_total" "count" [ float_of_int !vectors ] ];
        alloc_words = !gen_words } )
    :: outs
  else outs

(* ---------- per-layer probes (traced runs only) ---------- *)

let main_layouts opts sz fx =
  match opts.workload with
  | Generate -> fx.focus_layouts
  | Campaign_w | Diagnose -> (
    match fx.main with Some m -> [ m.Pipeline.fpva ] | None -> [])
  | Serve -> List.map (fun f -> f ()) sz.serve_layouts

let reps n f = for _ = 1 to n do f () done

let probe_structures layouts =
  reps 5 (fun () ->
      Span.run "compiled.of_fpva" (fun () ->
          List.iter (fun f -> ignore (Compiled.of_fpva f)) layouts));
  reps 5 (fun () ->
      Span.run "problem.build" (fun () ->
          List.iter
            (fun f ->
              ignore (Span.run "flow_path.problem" (fun () -> Flow_path.problem f));
              ignore (Span.run "cut_set.problems" (fun () -> Cut_set.problems f)))
            layouts));
  put "compiled.of_fpva_ms" "ms" (1000.0 *. median (Span.per_call "compiled.of_fpva"));
  put "problem.build_ms" "ms" (1000.0 *. median (Span.per_call "problem.build"))

let search_instances tiny =
  let n_small = if tiny then 4 else 10 and n_big = if tiny then 5 else 30 in
  [ ("flow10", fun () -> fst (Flow_path.problem (Layouts.paper_array n_small)));
    ("cut10", fun () -> fst (List.hd (Cut_set.problems (Layouts.paper_array n_small))));
    ("flow30", fun () -> fst (Flow_path.problem (Layouts.paper_array n_big))) ]

let probe_search tiny =
  List.iter
    (fun (label, make) ->
      let prob = make () in
      let weight =
        Array.map (fun r -> if r then 1.0 else 0.0) prob.Problem.required
      in
      let name = "path_search.find." ^ label in
      reps 3 (fun () ->
          let found = Span.run name (fun () -> Path_search.find prob ~weight) in
          check ("path_search " ^ label ^ ": path found") (found <> None));
      put ("path_search.find_us." ^ label) "us" (1e6 *. median (Span.per_call name));
      put ("path_search.find_words." ^ label) "words"
        (median (Span.per_call_words name)))
    (search_instances tiny)

(* The three generation stages called directly, as Pipeline.run calls
   them, with a Cover.stats per stage. *)
let probe_stages layouts =
  let config = Pipeline.default_config in
  let engine = config.Pipeline.engine in
  let stats = List.map (fun s -> (s, Cover.fresh_stats ())) [ "flow"; "cut"; "leak" ] in
  let paths = Hashtbl.create 3 in
  let add_paths s n =
    Hashtbl.replace paths s (n + Option.value ~default:0 (Hashtbl.find_opt paths s))
  in
  List.iter
    (fun fpva ->
      let options = { Hierarchy.default_options with Hierarchy.engine } in
      let h =
        Span.run "hierarchy.generate" (fun () ->
            Hierarchy.generate ~options ~stats:(List.assoc "flow" stats) fpva)
      in
      add_paths "flow" (List.length h.Hierarchy.paths);
      let cuts, _ =
        Span.run "cut_set.generate" (fun () ->
            Cut_set.generate ~engine ~anti_masking:config.Pipeline.anti_masking
              ~stats:(List.assoc "cut" stats) fpva)
      in
      add_paths "cut" (List.length cuts);
      let leak, _ =
        Span.run "leakage.generate" (fun () ->
            Leakage.generate ~engine
              ~pairs:(Control.leak_pairs fpva config.Pipeline.leak_routing)
              ~stats:(List.assoc "leak" stats) fpva ~existing:h.Hierarchy.paths)
      in
      add_paths "leak" (List.length leak))
    layouts;
  List.iter
    (fun (stage, span) ->
      put ("stage." ^ stage ^ "_s") "s" (Span.total span);
      put ("stage." ^ stage ^ "_words") "words" (Span.total_words span))
    [ ("flow", "hierarchy.generate"); ("cut", "cut_set.generate");
      ("leak", "leakage.generate") ];
  List.iter
    (fun (stage, (s : Cover.stats)) ->
      put ("cover.attempts." ^ stage) "count" (float_of_int s.Cover.attempts);
      put ("cover.fallbacks." ^ stage) "count" (float_of_int s.Cover.fallbacks);
      put ("cover.budget_hits." ^ stage) "count" (float_of_int s.Cover.budget_hits);
      put ("cover.paths_per_attempt." ^ stage) "ratio"
        (Stats.ratio (Hashtbl.find paths stage) s.Cover.attempts))
    stats

let random_faults rng fpva n =
  List.init n (fun i ->
      Campaign.draw_faults rng fpva ~classes:[ `Stuck_at_0; `Stuck_at_1 ]
        ~count:(1 + (i mod 5)))

let probe_simulator (suite : Pipeline.t) ~seed =
  let fpva = suite.Pipeline.fpva and vectors = suite.Pipeline.vectors in
  let nv = List.length vectors in
  let rng = Rng.create seed in
  let faults = random_faults rng fpva 64 in
  let h = Simulator.make fpva in
  reps 3 (fun () ->
      Span.run ~calls:(64 * nv) "simulator.detects_h" (fun () ->
          List.iter
            (fun fs ->
              List.iter (fun v -> ignore (Simulator.detects_h h ~faults:fs v)) vectors)
            faults));
  put "simulator.detects_ns" "ns" (1e9 *. median (Span.per_call "simulator.detects_h"));
  let b = Simulator.make_batch fpva in
  let width = Simulator.batch_width in
  let alive = (1 lsl width) - 1 in
  let batches = 8 in
  let loads = Array.init batches (fun _ -> Array.of_list (random_faults rng fpva width)) in
  reps 3 (fun () ->
      Span.run ~calls:(batches * nv) "simulator.batch_detects" (fun () ->
          Array.iter
            (fun lanes ->
              Simulator.batch_reset b;
              Array.iteri (fun l fs -> Simulator.batch_set_lane b l ~faults:fs) lanes;
              List.iter (fun v -> ignore (Simulator.batch_detects b ~alive v)) vectors)
            loads));
  let per_batch = median (Span.per_call "simulator.batch_detects") in
  put "simulator.batch_detects_ns" "ns" (1e9 *. per_batch);
  put "simulator.batch_ns_per_lane" "ns" (1e9 *. per_batch /. float_of_int width);
  let m = Measurement.uniform fpva ~false_pass:0.02 ~false_fail:0.02 in
  let mrng = Rng.create (seed + 1) in
  reps 3 (fun () ->
      Span.run ~calls:(64 * nv) "measurement.detects_h" (fun () ->
          List.iter
            (fun fs ->
              List.iter
                (fun v -> ignore (Measurement.detects_h m mrng h ~faults:fs v))
                vectors)
            faults));
  put "measurement.read_ns" "ns" (1e9 *. median (Span.per_call "measurement.detects_h"))

let probe_journal () =
  let payload = String.make (max 1 !shard_record_bytes) 'x' in
  let path = tmp "probe.journal" in
  match Journal.create ~sync_every:0 ~resume:false path with
  | Error e -> check ("journal: " ^ Journal.error_to_string e) false
  | Ok (_, w) ->
    let per_batch = 25 in
    let b0 = Journal.bytes_written w in
    reps 10 (fun () ->
        Span.run ~calls:per_batch "journal.append" (fun () ->
            for _ = 1 to per_batch do Journal.append w payload done);
        Span.run "journal.sync" (fun () -> Journal.sync w));
    let bytes = Journal.bytes_written w - b0 in
    Journal.close w;
    put "journal.append_us" "us" (1e6 *. median (Span.per_call "journal.append"));
    put "journal.sync_ms" "ms" (1000.0 *. median (Span.per_call "journal.sync"));
    put "journal.bytes_per_record" "bytes"
      (float_of_int bytes /. float_of_int (10 * per_batch))

let probe_diagnosis () =
  match !last_dictionary with
  | None -> check "diagnosis: dictionary available" false
  | Some (suite, dict) ->
    let fpva = suite.Pipeline.fpva and vectors = suite.Pipeline.vectors in
    let faults = Array.of_list (Diagnosis.single_faults fpva) in
    let n = Array.length faults in
    let syndromes =
      Span.run ~calls:n "diagnosis.syndrome_of" (fun () ->
          Array.map (fun f -> Diagnosis.syndrome_of fpva ~vectors ~faults:[ f ]) faults)
    in
    put "diagnosis.syndrome_us" "us" (1e6 *. median (Span.per_call "diagnosis.syndrome_of"));
    let sessions = max 200 n in
    let reads = ref 0 in
    for k = 0 to sessions - 1 do
      let syn = syndromes.(k mod n) in
      let o =
        Span.run "sequential.run" (fun () ->
            Sequential.run dict ~read:(fun i _ -> syn.(i)))
      in
      reads := !reads + o.Sequential.reads
    done;
    let ms = List.map (fun s -> 1000.0 *. s) (Span.per_call "sequential.run") in
    put "sequential.session_ms" "ms" (median ms);
    put "sequential.session_ms_p90" "ms" (Stats.percentile (Array.of_list ms) 90.0);
    put "sequential.reads" "count" (float_of_int !reads /. float_of_int sessions)

let probe_json () =
  match !last_warm_frame with
  | None -> check "json: warm frame available" false
  | Some line ->
    let n = 200 in
    let parsed = ref Json.Null in
    Span.run ~calls:n "json.parse" (fun () ->
        for _ = 1 to n do
          match Json.parse line with Ok j -> parsed := j | Error _ -> ()
        done);
    Span.run ~calls:n "json.print" (fun () ->
        for _ = 1 to n do ignore (Json.to_string !parsed) done);
    check "json: warm frame round-trips" (Json.to_string !parsed = line);
    put "json.parse_us" "us" (1e6 *. median (Span.per_call "json.parse"));
    put "json.print_us" "us" (1e6 *. median (Span.per_call "json.print"))

let self_layers =
  [ "bench"; "pipeline"; "compiled"; "problem"; "flow_path"; "cut_set";
    "path_search"; "hierarchy"; "leakage"; "campaign"; "simulator";
    "measurement"; "journal"; "diagnosis"; "sequential"; "lifetime"; "serve";
    "json" ]

(* Layer-level values read back from the traced sections. *)
let report_sections () =
  let per_call_s name = median (Span.per_call name) in
  put "campaign.ideal_s" "s" (per_call_s "campaign.ideal");
  put "campaign.noisy_s" "s" (per_call_s "campaign.noisy");
  put "campaign.journaled_s" "s" (per_call_s "campaign.journaled");
  (match !last_noisy with
  | Some n ->
    let reads, slots =
      List.fold_left
        (fun (r, s) row -> (r + row.Campaign.total_reads, s + row.Campaign.vector_slots))
        (0, 0) n.Campaign.noise_rows
    in
    put "retest.reads_per_vector" "count" (Stats.ratio reads slots)
  | None -> ());
  put "serve.warm_p90_ms" "ms" (fst !last_warm_tail);
  put "serve.warm_p99_ms" "ms" (snd !last_warm_tail);
  put "diagnosis.build_s" "s" (per_call_s "diagnosis.build");
  put "lifetime.run_s" "s" (per_call_s "lifetime.run");
  (match !last_lifetime with
  | Some l -> put "lifetime.total_reads" "count" (float_of_int l.Lifetime.total_reads)
  | None -> ());
  match !last_stats with
  | None -> ()
  | Some st ->
    let ratio cache =
      match Json.member cache st with
      | Some c ->
        let h = Option.value ~default:0 (Json.get_int "hits" c)
        and m = Option.value ~default:0 (Json.get_int "misses" c) in
        Stats.ratio h (h + m)
      | None -> 0.0
    in
    put "cache.suite_hit_ratio" "ratio" (ratio "suite_cache");
    put "cache.layout_hit_ratio" "ratio" (ratio "layout_cache");
    put "serve.queue_depth" "count"
      (float_of_int (Option.value ~default:0 (Json.get_int "queue_depth" st)))

let report_self () =
  let tbl = Span.self_by_layer () in
  let layer_of l =
    match l with "setup" | "section" | "round" | "probe" -> "bench" | l -> l
  in
  let sums = Hashtbl.create 32 in
  Hashtbl.iter
    (fun l v ->
      let k = layer_of l in
      Hashtbl.replace sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums k)))
    tbl;
  List.iter
    (fun l ->
      put ("self_s." ^ l) "s" (Option.value ~default:0.0 (Hashtbl.find_opt sums l)))
    self_layers

(* ---------- main ---------- *)

let primary = function
  | Generate -> "generate_s"
  | Campaign_w -> "campaign_trials_per_s"
  | Diagnose -> "sequential_sessions_per_s"
  | Serve -> "serve_warm_p50_ms"

let find_sample outs name =
  List.find_map
    (fun (_, o) -> List.find_opt (fun s -> s.name = name) o.out)
    outs

let machine opts =
  Json.Obj
    [ ("nproc", Json.Int opts.nproc);
      ("domains", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String opts.commit);
      ("word_size", Json.Int Sys.word_size) ]

let end_to_end opts setup_times fixtures fx outs =
  put_median "setup_s" "s" setup_times;
  let focus = List.assoc opts.workload outs in
  put "alloc_gb" "GB" (gb_of_words focus.alloc_words);
  List.iter
    (fun (_, o) -> List.iter (fun s -> put_median s.name s.unit s.values) o.out)
    outs;
  (* Outside the generate workload, generation happens in set-up. *)
  if opts.workload <> Generate then begin
    put_median "generate_s" "s" (List.map (fun f -> f.gen_seconds) fixtures);
    put "vectors_total" "count" (float_of_int fx.gen_vectors)
  end

let () =
  let opts = parse_opts () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p out_dir;
  mkdir_p tmp_dir;
  at_exit (fun () ->
      kill_live_servers ();
      remove_tmp ());
  let sz = sizes opts.tiny in
  Span.enabled := opts.trace;
  let fx, first_setup = Timer.time (fun () -> setup opts sz) in
  if opts.trace then begin
    (* Every section untraced, then traced: the overhead compares
       windows as long as the end-to-end ones. *)
    Span.enabled := false;
    let untraced = run_sections opts sz fx ~chores:[] in
    Span.enabled := true;
    let traced = run_sections opts sz fx ~chores:[] in
    let name = primary opts.workload in
    (match (find_sample untraced name, find_sample traced name) with
    | Some u, Some t ->
      let u = median u.values and tv = median t.values in
      let ratio = if t.lower then tv /. u else u /. tv in
      put "trace.overhead_pct" "pct" (100.0 *. (ratio -. 1.0))
    | _ -> check "trace: overhead measured" false);
    put "trace.window_s" "s"
      (Span.total "round.generate" +. Span.total "section.window");
    let layouts = main_layouts opts sz fx in
    Span.run "probe.structures" (fun () -> probe_structures layouts);
    Span.run "probe.search" (fun () -> probe_search opts.tiny);
    Span.run "probe.stages" (fun () -> probe_stages layouts);
    (match !campaign_suite with
    | Some s -> Span.run "probe.simulator" (fun () -> probe_simulator s ~seed:opts.seed)
    | None -> check "simulator: suite available" false);
    Span.run "probe.journal" probe_journal;
    Span.run "probe.diagnosis" probe_diagnosis;
    Span.run "probe.json" probe_json;
    teardown fx;
    report_sections ();
    report_self ();
    Span.write
      (Filename.concat out_dir
         (Printf.sprintf "spans-%s-seed%d.jsonl" (workload_name opts.workload)
            opts.seed))
  end
  else begin
    (* The further set-ups run between pieces of the window. *)
    let setups = ref [ (fx, first_setup) ] in
    let again () =
      let f, t = Timer.time (fun () -> setup opts sz) in
      teardown f;
      setups := (f, t) :: !setups
    in
    let outs =
      run_sections opts sz fx ~chores:(List.init (sz.setups - 1) (fun _ -> again))
    in
    teardown fx;
    end_to_end opts (List.map snd !setups) (List.map fst !setups) fx outs;
    put "top_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1e6);
    put "ok_frac" "frac" (1.0 -. Stats.ratio !failed (max 1 !attempted))
  end;
  let metrics = List.rev !metrics in
  List.iter
    (fun (name, (v, _)) ->
      if not (Float.is_finite v) then check (name ^ " is finite") false)
    metrics;
  let detail =
    Json.Obj
      [ ("workload", Json.String (workload_name opts.workload));
        ("seed", Json.Int opts.seed);
        ("seconds", Json.Float opts.seconds);
        ("trace", Json.Bool opts.trace);
        ("machine", machine opts);
        ("samples", Json.Obj (List.rev !samples));
        ("failures", Json.List (List.rev_map (fun s -> Json.String s) !failures)) ]
  in
  print_endline (Json.to_string (Json.Obj [ ("detail", detail) ]));
  let result =
    Json.Obj
      [ ("correct", Json.Bool (!failed = 0));
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, (v, unit)) ->
                 (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
               metrics) ) ]
  in
  print_endline (Json.to_string result);
  if !failed > 0 then exit 1
