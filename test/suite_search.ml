(* Differential gate for the CSR search engine.

   [Path_search.find] must return exactly what the frozen list-adjacency
   engine in [Path_search_ref] returns, on the instances generation poses —
   flow, cut, leak (aggressor held closed) and hierarchy segments — with
   several seeds and weight profiles, and on random layouts.  The rendered
   suites of the Table I arrays up to 15x15 and Fig. 9 stay pinned to
   digests taken from the list-adjacency engine. *)

open Helpers
open Fpva_grid
open Fpva_testgen
module Rng = Fpva_util.Rng

let search_params ?(step_budget = 20_000) seed = { Path_search.step_budget; seed }

let agrees name (p : Problem.t) ~params ~weight =
  let got = Path_search.find ~params p ~weight in
  let want = Path_search_ref.find ~params p ~weight in
  if got <> want then
    Alcotest.failf "%s: %s instance, seed %d, budget %d: engines disagree" name
      p.Problem.name params.Path_search.seed params.Path_search.step_budget

let required_weight (p : Problem.t) =
  Array.map (fun r -> if r then 1.0 else 0.0) p.Problem.required

let focused_weight (p : Problem.t) e =
  let w = Array.make p.Problem.num_edges 0.0 in
  w.(e) <- 1000.0;
  w

(* Small integer weights: many exact ties in the candidate keys. *)
let tied_weight (p : Problem.t) seed =
  let rng = Rng.create seed in
  Array.init p.Problem.num_edges (fun _ -> float_of_int (Rng.int rng 3))

(* Up to [k] elements spread evenly over [l]. *)
let spread k l =
  let a = Array.of_list l in
  let n = Array.length a in
  if n <= k then l else List.init k (fun i -> a.(i * n / k))

(* The instance and weight of the leakage stage's attempt on pair (a, b),
   with the other residual victims at unit weight. *)
let leak_instance fpva pairs (a, b) =
  let prob, mapping = Flow_path.problem ~forbidden_valves:[ a ] fpva in
  let weight = Array.make prob.Problem.num_edges 0.0 in
  let edge v = Flow_path.edge_id_of_mapping mapping (Fpva.edge_of_valve fpva v) in
  List.iter
    (fun (_, v) ->
      match edge v with Some e -> weight.(e) <- max weight.(e) 1.0 | None -> ())
    pairs;
  (match edge b with Some e -> weight.(e) <- 1000.0 | None -> ());
  (prob, weight)

(* The segment instances hierarchical generation poses, with their weights,
   captured by a recording engine. *)
let segment_instances fpva =
  let log = ref [] in
  let find (p : Problem.t) ~weight =
    if p.Problem.name = "segment" then log := (p, Array.copy weight) :: !log;
    Path_search.find ~params:(search_params 0x5eed) p ~weight
  in
  let options =
    { Hierarchy.default_options with
      Hierarchy.engine = Cover.Custom { Cover.cname = "recorder"; find } }
  in
  ignore (Hierarchy.generate ~options fpva);
  List.rev !log

(* Each instance runs once at the full default budget with its generation
   weight, then under two other seeds and weight profiles at a tenth of it. *)
let gate name (p, weight) =
  agrees name p ~params:Path_search.default_params ~weight;
  agrees name p ~params:(search_params 17) ~weight:(required_weight p);
  agrees name p ~params:(search_params 104729) ~weight:(tied_weight p 7)

let differential name layout =
  slow_case (Printf.sprintf "CSR engine matches the list engine on %s" name)
    (fun () ->
      let fpva = layout () in
      let flow, mapping = Flow_path.problem fpva in
      gate name (flow, required_weight flow);
      List.iter
        (fun v ->
          match
            Flow_path.edge_id_of_mapping mapping (Fpva.edge_of_valve fpva v)
          with
          | Some e -> gate name (flow, focused_weight flow e)
          | None -> ())
        (spread 2 (List.init (Fpva.num_valves fpva) Fun.id));
      List.iter
        (fun (cut, _) ->
          gate name (cut, required_weight cut);
          List.iter
            (fun e -> gate name (cut, focused_weight cut e))
            (spread 2 (List.init cut.Problem.num_edges Fun.id)))
        (Cut_set.problems fpva);
      let pairs = Array.to_list (Leakage.adjacent_pairs fpva) in
      List.iter
        (fun pair -> gate name (leak_instance fpva pairs pair))
        (spread 3 pairs);
      let segments = segment_instances fpva in
      checkb "segments recorded" true (segments <> []);
      List.iter (gate name) (spread 6 segments))

(* Random layouts: flow and cut instances under random seeds, budgets and
   weights, plus a flow instance with one valve held closed. *)
let random_instances_agree =
  qcheck ~count:60 "CSR engine matches the list engine on random layouts"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (layout_seed, seed) ->
      let fpva = random_layout (Rng.create layout_seed) in
      let rng = Rng.create seed in
      let random_weight (p : Problem.t) =
        Array.init p.Problem.num_edges (fun _ ->
            if Rng.bool rng then 0.0 else Rng.float rng 4.0)
      in
      let check_instance (p : Problem.t) =
        let params =
          search_params ~step_budget:(1 + Rng.int rng 4_000) (Rng.int rng 1_000_000)
        in
        let weight = random_weight p in
        Path_search.find ~params p ~weight
        = Path_search_ref.find ~params p ~weight
      in
      let flow = fst (Flow_path.problem fpva) in
      let nv = Fpva.num_valves fpva in
      check_instance flow
      && (nv = 0
         || check_instance
              (fst
                 (Flow_path.problem ~forbidden_valves:[ Rng.int rng nv ] fpva)))
      && List.for_all (fun (p, _) -> check_instance p) (Cut_set.problems fpva))

(* ---------- suite digests ---------- *)

(* MD5 of [Suite_io.to_string] for the default pipeline, taken from the
   list-adjacency engine. *)
let pinned_digests =
  [
    ("5x5", (fun () -> Layouts.paper_array 5), "7d0c3a4bb6968c0577de3d33c6702658");
    ("10x10", (fun () -> Layouts.paper_array 10), "20a29170625e8a0c54d13b3a9937aca4");
    ("15x15", (fun () -> Layouts.paper_array 15), "b3a1814138fb8401ff1a42f3125ad38b");
    ("figure9", Layouts.figure9, "b75514033efce2874457e87ff198d130");
  ]

let digest_tests =
  List.map
    (fun (name, layout, want) ->
      slow_case (Printf.sprintf "%s suite digest is pinned" name) (fun () ->
          let fpva = layout () in
          let r = Pipeline.run_exn fpva in
          let got =
            Digest.to_hex
              (Digest.string (Suite_io.to_string fpva r.Pipeline.vectors))
          in
          check Alcotest.string "md5" want got))
    pinned_digests

let tests =
  [
    differential "5x5" (fun () -> Layouts.paper_array 5);
    differential "10x10" (fun () -> Layouts.paper_array 10);
    differential "15x15" (fun () -> Layouts.paper_array 15);
    differential "figure9" Layouts.figure9;
    random_instances_agree;
  ]
  @ digest_tests
