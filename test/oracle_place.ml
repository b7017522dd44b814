(* Differential oracle for [Techmap.place]: the original annealer, in
   which every move recomputes the full wirelength around both swapped
   cells from scratch. It consumes the PRNG exactly as the
   delta-wirelength annealer does, so both produce the same placement. *)

open Tytra_sim
open Techmap

let place ~(rng : Prng.t) ~(effort : int) (nl : netlist) :
    placement_result =
  let n = nl.n_cells in
  let grid = int_of_float (ceil (sqrt (float_of_int n))) in
  let pos = Array.init n (fun i -> (i mod grid, i / grid)) in
  let loc_of = Hashtbl.create n in
  Array.iteri (fun i p -> Hashtbl.replace loc_of i p) pos;
  let edge_len (a, b) =
    let ax, ay = pos.(a) and bx, by = pos.(b) in
    abs (ax - bx) + abs (ay - by)
  in
  (* adjacency: edges touching each cell *)
  let adj = Array.make n [] in
  Array.iteri
    (fun ei (a, b) ->
      if a < n && b < n then begin
        adj.(a) <- ei :: adj.(a);
        adj.(b) <- ei :: adj.(b)
      end)
    nl.n_edges;
  let total = ref 0 in
  Array.iter (fun e -> total := !total + edge_len e) nl.n_edges;
  let moves = effort * n in
  let temp0 = 4.0 +. (float_of_int grid /. 4.0) in
  let accepted = ref 0 in
  for m = 0 to moves - 1 do
    let a = Prng.int rng n and b = Prng.int rng n in
    if a <> b then begin
      let cost_around c =
        List.fold_left (fun acc ei -> acc + edge_len nl.n_edges.(ei)) 0 adj.(c)
      in
      let before = cost_around a + cost_around b in
      let pa = pos.(a) and pb = pos.(b) in
      pos.(a) <- pb;
      pos.(b) <- pa;
      let after = cost_around a + cost_around b in
      let dc = after - before in
      let t = temp0 *. (1.0 -. (float_of_int m /. float_of_int moves)) in
      let accept =
        dc <= 0
        || (t > 0.01 && Prng.float rng < exp (-.float_of_int dc /. t))
      in
      if accept then begin
        total := !total + dc;
        incr accepted
      end
      else begin
        pos.(a) <- pa;
        pos.(b) <- pb
      end
    end
  done;
  publish_anneal_metrics ~moves ~accepted:!accepted ~temp0;
  let nedges = max 1 (Array.length nl.n_edges) in
  {
    pl_avg_wire = float_of_int !total /. float_of_int nedges;
    pl_grid = grid;
    pl_moves = moves;
    pl_accepted = !accepted;
  }
