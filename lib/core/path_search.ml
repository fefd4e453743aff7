module Rng = Fpva_util.Rng
module Trace = Fpva_util.Trace

type params = { step_budget : int; seed : int }

let default_params = { step_budget = 200_000; seed = 0x5eed }

let calls_c = Trace.counter "path_search.calls"
let steps_c = Trace.counter "path_search.steps"
let exhausted_c = Trace.counter "path_search.budget_exhausted"
let perfect_c = Trace.counter "path_search.perfect"

(* [compare a b > 0] on floats, NaN ordered below everything. *)
let[@inline] after (a : float) b = a > b || (b <> b && a = a)

exception Out_of_budget

exception Abort_dive

(* Scratch shared by the BFS routes of one [find] call.  The seen and
   blocked sets are generation-stamped (a node is in the set when its slot
   holds the current generation), so starting a route clears nothing; the
   queue is flat, and the shuffle buffers hold one CSR slice. *)
type bfs_scratch = {
  seen : int array;
  mutable seen_gen : int;
  blocked : int array;
  mutable blocked_gen : int;
  prev : int array;
  via : int array;
  queue : int array;
  shuf_nbr : int array;
  shuf_eid : int array;
}

let create_bfs_scratch (p : Problem.t) =
  {
    seen = Array.make p.num_nodes 0;
    seen_gen = 0;
    blocked = Array.make p.num_nodes 0;
    blocked_gen = 0;
    prev = Array.make p.num_nodes (-1);
    via = Array.make p.num_nodes (-1);
    queue = Array.make p.num_nodes 0;
    shuf_nbr = Array.make p.max_degree 0;
    shuf_eid = Array.make p.max_degree 0;
  }

(* Start an empty blocked set. *)
let clear_blocked s = s.blocked_gen <- s.blocked_gen + 1

let block s n = s.blocked.(n) <- s.blocked_gen

(* BFS route with randomised neighbour order, avoiding blocked nodes and
   passing through no terminal except the two endpoints.  Returns the node
   list from [src] to a goal, or None.  Each expanded node's slice is
   shuffled with exactly the draws of [Rng.shuffle_in_place] on it. *)
let bfs_route (p : Problem.t) s rng ~src ~is_goal =
  s.seen_gen <- s.seen_gen + 1;
  let g = s.seen_gen and bg = s.blocked_gen in
  let seen = s.seen and blocked = s.blocked and queue = s.queue in
  let prev = s.prev and via = s.via in
  let nb = s.shuf_nbr and eb = s.shuf_eid in
  seen.(src) <- g;
  prev.(src) <- -1;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let goal = ref (-1) in
  while !goal < 0 && !head < !tail do
    let x = queue.(!head) in
    incr head;
    if is_goal x then goal := x
    else begin
      let lo = p.off.(x) in
      let d = p.off.(x + 1) - lo in
      Array.blit p.nbr lo nb 0 d;
      Array.blit p.eid lo eb 0 d;
      for i = d - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = nb.(i) in
        nb.(i) <- nb.(j);
        nb.(j) <- t;
        let t = eb.(i) in
        eb.(i) <- eb.(j);
        eb.(j) <- t
      done;
      for k = 0 to d - 1 do
        let y = nb.(k) in
        if seen.(y) <> g && blocked.(y) <> bg
           && ((not p.terminal.(y)) || is_goal y)
        then begin
          seen.(y) <- g;
          prev.(y) <- x;
          via.(y) <- eb.(k);
          queue.(!tail) <- y;
          incr tail
        end
      done
    end
  done;
  if !goal < 0 then None
  else begin
    let rec back nodes edges x =
      if x = src then (x :: nodes, edges)
      else back (x :: nodes) (via.(x) :: edges) prev.(x)
    in
    Some (back [] [] !goal)
  end

(* Constructive path through a specific edge: route start -> one endpoint,
   then the other endpoint -> end avoiding the first half.  Randomised
   retries give diversity; the result is audited by [Problem.path_ok] so all
   side conditions (terminals, anti-masking, endpoint validity) hold. *)
let through (p : Problem.t) s rng ~is_end ~edge ~attempts =
  let a, b = p.edge_ends.(edge) in
  let try_once () =
    let st = p.starts.(Rng.int rng (Array.length p.starts)) in
    let x, y = if Rng.bool rng then (a, b) else (b, a) in
    if p.terminal.(x) || p.terminal.(y) then None
    else begin
      clear_blocked s;
      block s y;
      match bfs_route p s rng ~src:st ~is_goal:(fun n -> n = x) with
      | None -> None
      | Some (nodes1, edges1) ->
        clear_blocked s;
        List.iter (block s) nodes1;
        let valid_end n = is_end.(n) && p.valid_pair st n in
        (match bfs_route p s rng ~src:y ~is_goal:valid_end with
        | None -> None
        | Some (nodes2, edges2) ->
          let nodes = nodes1 @ nodes2 in
          let edges = edges1 @ (edge :: edges2) in
          let path = { Problem.nodes; edges } in
          (match Problem.path_ok p path with
          | Ok () -> Some path
          | Error _ -> None))
    end
  in
  let rec loop k = if k <= 0 then None else
    match try_once () with Some path -> Some path | None -> loop (k - 1)
  in
  loop attempts

(* Strategy: constructive seeding for the heaviest edges, then many
   randomised greedy dives with a small backtracking allowance.  A single
   exhaustive DFS on a grid gets trapped permuting the tail of its first
   deep path; bounded-backtrack dives spread the budget over many
   independent path shapes, and the constructive seeds guarantee that a
   sparse, targeted weight profile (mop-up, leakage victims, probes) is
   served even when blind dives would never stumble onto the target.

   A dive step allocates nothing but its RNG draw: the path lives in array
   stacks indexed by depth, the score of each depth in a float array, and
   each depth owns [max_degree] candidate slots, kept sorted by a stable
   insertion on the key alone.  Candidates are drawn and ordered exactly as
   a stable sort of the slice would order them, so a seed fixes the RNG
   draw sequence and the result (test/suite_search.ml holds this against
   the list-based engine). *)
let find ?(params = default_params) (p : Problem.t) ~weight =
  if Array.length weight <> p.num_edges then invalid_arg "Path_search.find";
  Array.iter
    (fun w -> if w < 0.0 then invalid_arg "Path_search.find: negative weight")
    weight;
  let rng = Rng.create params.seed in
  let budget = ref params.step_budget in
  let total_weight = Array.fold_left ( +. ) 0.0 weight in
  (* The incumbent: [best_len] is its node count, 0 until one is found. *)
  let best_score = [| neg_infinity |] in
  let best_len = ref 0 in
  let best_nodes = ref [] and best_edges = ref [] in
  let perfect = ref false in
  let improves score len =
    score > best_score.(0) +. 1e-9
    || !best_len = 0
    || (abs_float (score -. best_score.(0)) <= 1e-9 && len < !best_len)
  in
  let accept score nodes edges len =
    best_score.(0) <- score;
    best_nodes := nodes;
    best_edges := edges;
    best_len := len;
    if score >= total_weight -. 1e-9 then perfect := true
  in
  let is_end = Array.make p.num_nodes false in
  Array.iter (fun n -> is_end.(n) <- true) p.ends;
  (* Constructive seeds: a guaranteed-style candidate through each of the
     heaviest weighted edges. *)
  let heavy =
    let idx = Array.init p.num_edges (fun e -> e) in
    Array.sort (fun e f -> compare weight.(f) weight.(e)) idx;
    let out = ref [] in
    Array.iteri (fun k e -> if k < 3 && weight.(e) > 0.0 then out := e :: !out) idx;
    List.rev !out
  in
  let scratch = create_bfs_scratch p in
  List.iter
    (fun e ->
      match through p scratch rng ~is_end ~edge:e ~attempts:12 with
      | Some path ->
        (* paths are simple, so edges are distinct *)
        let score =
          List.fold_left (fun acc e -> acc +. weight.(e)) 0.0 path.Problem.edges
        in
        let len = List.length path.Problem.nodes in
        if improves score len then
          accept score path.Problem.nodes path.Problem.edges len
      | None -> ())
    heavy;
  (* Randomised dives. *)
  let n = p.num_nodes and maxdeg = p.max_degree in
  let off = p.off and nbr = p.nbr and eid = p.eid in
  let visited = Array.make n false in
  (* Depth [d] holds the path's node [d], the edge that reached it (unused
     at the root) and the path's weight up to it. *)
  let node_stack = Array.make n 0 and edge_stack = Array.make n 0 in
  let scores = Array.make n 0.0 in
  let cand_nbr = Array.make (n * maxdeg) 0 and cand_eid = Array.make (n * maxdeg) 0 in
  let cand_key = Array.make (n * maxdeg) 0.0 in
  let backtracks = ref 0 in
  (* Anti-masking: stepping onto [x] via [f] is legal only if no
     pair-constrained edge links [x] to an already-visited node (other than
     through [f] itself): such an edge could never be traversed any more. *)
  let masking_ok x f =
    let ok = ref true and k = ref off.(x) in
    let hi = off.(x + 1) in
    while !ok && !k < hi do
      let e = eid.(!k) in
      if p.pair_constrained.(e) && e <> f && visited.(nbr.(!k)) then ok := false;
      incr k
    done;
    !ok
  in
  let record start d final final_edge =
    let score = scores.(d) +. weight.(final_edge) in
    if is_end.(final) && (not visited.(final)) && p.valid_pair start final
       && masking_ok final final_edge
       && improves score (d + 2)
    then begin
      let nodes = ref [ final ] and edges = ref [ final_edge ] in
      for i = d downto 1 do
        nodes := node_stack.(i) :: !nodes;
        edges := edge_stack.(i) :: !edges
      done;
      accept score (node_stack.(0) :: !nodes) !edges (d + 2)
    end
  in
  let unvisited_degree x =
    let c = ref 0 in
    for k = off.(x) to off.(x + 1) - 1 do
      if not visited.(nbr.(k)) then incr c
    done;
    !c
  in
  let rec explore start d =
    if !budget <= 0 then raise Out_of_budget;
    decr budget;
    let current = node_stack.(d) in
    let lo = off.(current) and hi = off.(current + 1) in
    (* Harvest end hops. *)
    for k = lo to hi - 1 do
      if not !perfect then record start d nbr.(k) eid.(k)
    done;
    if not !perfect then begin
      let base = d * maxdeg in
      let count = ref 0 in
      for k = lo to hi - 1 do
        let y = nbr.(k) and e = eid.(k) in
        if not (visited.(y) || p.terminal.(y)) && masking_ok y e then begin
          let key =
            (-.weight.(e) *. 1024.0)
            +. float_of_int (unvisited_degree y)
            +. Rng.float rng 0.5
          in
          let i = ref (base + !count) in
          while !i > base && after cand_key.(!i - 1) key do
            cand_key.(!i) <- cand_key.(!i - 1);
            cand_nbr.(!i) <- cand_nbr.(!i - 1);
            cand_eid.(!i) <- cand_eid.(!i - 1);
            decr i
          done;
          cand_key.(!i) <- key;
          cand_nbr.(!i) <- y;
          cand_eid.(!i) <- e;
          incr count
        end
      done;
      for k = base to base + !count - 1 do
        if not !perfect then begin
          let y = cand_nbr.(k) and e = cand_eid.(k) in
          visited.(y) <- true;
          node_stack.(d + 1) <- y;
          edge_stack.(d + 1) <- e;
          scores.(d + 1) <- scores.(d) +. weight.(e);
          explore start (d + 1);
          visited.(y) <- false;
          (* Returning here means the child subtree was abandoned: spend one
             unit of this dive's backtracking allowance. *)
          decr backtracks;
          if !backtracks < 0 then raise Abort_dive
        end
      done
    end
  in
  let dive start =
    Array.fill visited 0 n false;
    visited.(start) <- true;
    node_stack.(0) <- start;
    scores.(0) <- 0.0;
    (* Allowance scales with instance size: enough to wriggle out of small
       pockets, not enough to stagnate in one region. *)
    backtracks := 16 + (n / 8);
    try explore start 0 with Abort_dive -> ()
  in
  (try
     let starts = Array.copy p.starts in
     while not !perfect && !budget > 0 do
       Rng.shuffle_in_place rng starts;
       Array.iter (fun s -> if not !perfect then dive s) starts
     done
   with Out_of_budget -> ());
  if Trace.is_enabled () then begin
    Trace.incr calls_c;
    Trace.add steps_c (params.step_budget - !budget);
    if !perfect then Trace.incr perfect_c
    else if !budget <= 0 then Trace.incr exhausted_c
  end;
  if !best_len > 0 then Some { Problem.nodes = !best_nodes; edges = !best_edges }
  else None
