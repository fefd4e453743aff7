(* Frozen copy of the list-adjacency search engine that [Path_search]
   replaced: the differential oracle for the CSR engine.  Apart from
   rebuilding the per-node [(neighbour, edge)] lists that [Problem.t] used
   to carry (same order: descending edge id), the code is the old engine
   verbatim — do not tune it.  [find] must agree with [Path_search.find] on
   every instance, seed and weight profile. *)

open Fpva_testgen
module Rng = Fpva_util.Rng

(* The old [Problem.build] adjacency: prepend in edge-id order. *)
let adj_of (p : Problem.t) =
  let adj = Array.make p.num_nodes [] in
  Array.iteri
    (fun e (a, b) ->
      adj.(a) <- (b, e) :: adj.(a);
      adj.(b) <- (a, e) :: adj.(b))
    p.edge_ends;
  adj

let default_params = Path_search.default_params

type best = {
  mutable score : float;
  mutable nodes : int list;
  mutable edges : int list;
  mutable found : bool;
}

exception Out_of_budget

exception Abort_dive

(* BFS route with randomised neighbour order, avoiding [blocked] nodes and
   passing through no terminal except the two endpoints.  Returns the node
   list from [src] to a goal, or None. *)
let bfs_route (p : Problem.t) adj rng ~src ~is_goal ~blocked =
  let prev = Array.make p.num_nodes (-2) in
  (* -2 unseen, -1 root *)
  let via = Array.make p.num_nodes (-1) in
  let q = Queue.create () in
  prev.(src) <- -1;
  Queue.add src q;
  let goal = ref None in
  while !goal = None && not (Queue.is_empty q) do
    let x = Queue.pop q in
    if is_goal x then goal := Some x
    else begin
      let neighbors = Array.of_list adj.(x) in
      Rng.shuffle_in_place rng neighbors;
      Array.iter
        (fun (y, e) ->
          if prev.(y) = -2 && (not blocked.(y))
             && ((not p.terminal.(y)) || is_goal y)
          then begin
            prev.(y) <- x;
            via.(y) <- e;
            Queue.add y q
          end)
        neighbors
    end
  done;
  match !goal with
  | None -> None
  | Some g ->
    let rec back nodes edges x =
      if x = src then (x :: nodes, edges)
      else back (x :: nodes) (via.(x) :: edges) prev.(x)
    in
    Some (back [] [] g)

(* Constructive path through a specific edge: route start -> one endpoint,
   then the other endpoint -> end avoiding the first half.  Randomised
   retries give diversity; the result is audited by [Problem.path_ok] so all
   side conditions (terminals, anti-masking, endpoint validity) hold. *)
let through (p : Problem.t) adj rng ~edge ~attempts =
  let a, b = p.edge_ends.(edge) in
  let starts = Array.copy p.starts and ends = Array.copy p.ends in
  let try_once () =
    let s = starts.(Rng.int rng (Array.length starts)) in
    let x, y = if Rng.bool rng then (a, b) else (b, a) in
    if p.terminal.(x) || p.terminal.(y) then None
    else begin
      let blocked = Array.make p.num_nodes false in
      blocked.(y) <- true;
      match bfs_route p adj rng ~src:s ~is_goal:(fun n -> n = x) ~blocked with
      | None -> None
      | Some (nodes1, edges1) ->
        let blocked = Array.make p.num_nodes false in
        List.iter (fun n -> blocked.(n) <- true) nodes1;
        let valid_end n =
          Array.exists (fun t -> t = n) ends && p.valid_pair s n
        in
        (match bfs_route p adj rng ~src:y ~is_goal:valid_end ~blocked with
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
   served even when blind dives would never stumble onto the target. *)
let find ?(params = default_params) (p : Problem.t) ~weight =
  let adj = adj_of p in
  if Array.length weight <> p.num_edges then invalid_arg "Path_search.find";
  Array.iter
    (fun w -> if w < 0.0 then invalid_arg "Path_search.find: negative weight")
    weight;
  let rng = Rng.create params.Path_search.seed in
  let budget = ref params.Path_search.step_budget in
  let best = { score = neg_infinity; nodes = []; edges = []; found = false } in
  let total_weight = Array.fold_left ( +. ) 0.0 weight in
  let perfect = ref false in
  let score_of edges =
    (* paths are simple, so edges are distinct *)
    List.fold_left (fun acc e -> acc +. weight.(e)) 0.0 edges
  in
  let offer (path : Problem.path) =
    let score = score_of path.Problem.edges in
    if
      score > best.score +. 1e-9
      || (not best.found)
      || (abs_float (score -. best.score) <= 1e-9
         && best.found
         && List.length path.Problem.nodes < List.length best.nodes)
    then begin
      best.score <- score;
      best.nodes <- path.Problem.nodes;
      best.edges <- path.Problem.edges;
      best.found <- true;
      if score >= total_weight -. 1e-9 then perfect := true
    end
  in
  (* Constructive seeds: a guaranteed-style candidate through each of the
     heaviest weighted edges. *)
  let heavy =
    let idx = Array.init p.num_edges (fun e -> e) in
    Array.sort (fun e f -> compare weight.(f) weight.(e)) idx;
    let out = ref [] in
    Array.iteri (fun k e -> if k < 3 && weight.(e) > 0.0 then out := e :: !out) idx;
    List.rev !out
  in
  List.iter
    (fun e ->
      match through p adj rng ~edge:e ~attempts:12 with
      | Some path -> offer path
      | None -> ())
    heavy;
  (* Randomised dives. *)
  let visited = Array.make p.num_nodes false in
  let node_stack = ref [] and edge_stack = ref [] in
  let path_len = ref 0 in
  let backtracks = ref 0 in
  let is_end = Array.make p.num_nodes false in
  Array.iter (fun n -> is_end.(n) <- true) p.ends;
  (* Anti-masking: stepping onto [x] via [f] is legal only if no
     pair-constrained edge links [x] to an already-visited node (other than
     through [f] itself): such an edge could never be traversed any more. *)
  let masking_ok x f =
    List.for_all
      (fun (y, e) -> (not p.pair_constrained.(e)) || e = f || not visited.(y))
      adj.(x)
  in
  let record start final final_edge score =
    if is_end.(final) && (not visited.(final)) && p.valid_pair start final
       && masking_ok final final_edge
       && (score > best.score +. 1e-9
          || (not best.found)
          || (abs_float (score -. best.score) <= 1e-9
             && best.found
             && !path_len + 1 < List.length best.nodes))
    then begin
      best.score <- score;
      best.nodes <- List.rev (final :: !node_stack);
      best.edges <- List.rev (final_edge :: !edge_stack);
      best.found <- true;
      if score >= total_weight -. 1e-9 then perfect := true
    end
  in
  let unvisited_degree x =
    List.fold_left
      (fun acc (y, _) -> if visited.(y) then acc else acc + 1)
      0 adj.(x)
  in
  let rec explore start score =
    if !budget <= 0 then raise Out_of_budget;
    decr budget;
    let current = List.hd !node_stack in
    (* Harvest end hops. *)
    List.iter
      (fun (y, e) ->
        if not !perfect then record start y e (score +. weight.(e)))
      adj.(current);
    if not !perfect then begin
      let cands =
        List.filter_map
          (fun (y, e) ->
            if visited.(y) || p.terminal.(y) then None
            else if not (masking_ok y e) then None
            else begin
              let key =
                (-.weight.(e) *. 1024.0)
                +. float_of_int (unvisited_degree y)
                +. Rng.float rng 0.5
              in
              Some (key, y, e)
            end)
          adj.(current)
      in
      let cands = List.sort (fun (a, _, _) (b, _, _) -> compare a b) cands in
      let step (_, y, e) =
        if not !perfect then begin
          visited.(y) <- true;
          node_stack := y :: !node_stack;
          edge_stack := e :: !edge_stack;
          incr path_len;
          explore start (score +. weight.(e));
          visited.(y) <- false;
          node_stack := List.tl !node_stack;
          edge_stack := List.tl !edge_stack;
          decr path_len;
          (* Returning here means the child subtree was abandoned: spend one
             unit of this dive's backtracking allowance. *)
          decr backtracks;
          if !backtracks < 0 then raise Abort_dive
        end
      in
      List.iter step cands
    end
  in
  let dive start =
    Array.fill visited 0 p.num_nodes false;
    visited.(start) <- true;
    node_stack := [ start ];
    edge_stack := [];
    path_len := 1;
    (* Allowance scales with instance size: enough to wriggle out of small
       pockets, not enough to stagnate in one region. *)
    backtracks := 16 + (p.num_nodes / 8);
    try explore start 0.0 with Abort_dive -> ()
  in
  (try
     let starts = Array.copy p.starts in
     while not !perfect && !budget > 0 do
       Rng.shuffle_in_place rng starts;
       Array.iter (fun s -> if not !perfect then dive s) starts
     done
   with Out_of_budget -> ());
  if best.found then Some { Problem.nodes = best.nodes; edges = best.edges }
  else None
