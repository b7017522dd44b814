(** Sized vector types and order/size-preserving reshaping.

    The paper's front end is a dependently-typed functional language
    (Idris) in which a kernel's data is a vector whose length is part of
    its type: [Vect (im*jm*km) t]. Design variants are generated by
    {e type transformations} that reshape such a vector — e.g.
    [reshapeTo km : Vect (im*jm*km) t -> Vect km (Vect (im*jm) t)] — in an
    order- and size-preserving manner, with the corresponding program
    transformation inferred from the type transformation (paper §II,
    [Vanderbauwhede 2015]).

    OCaml does not have dependent types; sizes here are runtime values
    carried by the type representation, and the order/size-preservation
    obligations that Idris discharges statically are checked dynamically
    (and property-tested): [flatten (reshape_to l v) = v]. *)

type t =
  | Scalar of Tytra_ir.Ty.t
  | Vect of int * t  (** [Vect (n, t)]: a vector of [n] elements of [t] *)

let rec pp fmt = function
  | Scalar ty -> Format.pp_print_string fmt (Tytra_ir.Ty.to_string ty)
  | Vect (n, t) -> Format.fprintf fmt "Vect %d (%a)" n pp t

let to_string t = Format.asprintf "%a" pp t

(** Total number of scalar elements. *)
let rec size = function
  | Scalar _ -> 1
  | Vect (n, t) -> n * size t

(** Element scalar type. *)
let rec elem = function Scalar ty -> ty | Vect (_, t) -> elem t

(** [reshape_to l t] — the [reshapeTo] type transformation: split the
    outermost vector of [t] into [l] equal parts:
    [Vect n t' -> Vect l (Vect (n/l) t')]. Fails unless [l] divides [n]
    (size preservation) — the dynamic counterpart of the Idris proof
    obligation. *)
let reshape_to (l : int) (t : t) : (t, string) result =
  match t with
  | Scalar _ -> Error "reshape_to: cannot reshape a scalar"
  | Vect (n, inner) ->
      if l <= 0 then Error "reshape_to: lane count must be positive"
      else if n mod l <> 0 then
        Error
          (Printf.sprintf
             "reshape_to: %d does not divide vector length %d (size \
              preservation would fail)"
             l n)
      else Ok (Vect (l, Vect (n / l, inner)))

(** [flatten t] — inverse of {!reshape_to} on the outer two dimensions:
    [Vect l (Vect m t') -> Vect (l*m) t']. *)
let flatten (t : t) : (t, string) result =
  match t with
  | Vect (l, Vect (m, inner)) -> Ok (Vect (l * m, inner))
  | _ -> Error "flatten: needs a rank-2 (or deeper) vector"

(** Equality of type representations. *)
let rec equal a b =
  match (a, b) with
  | Scalar x, Scalar y -> Tytra_ir.Ty.equal x y
  | Vect (n, x), Vect (m, y) -> n = m && equal x y
  | _ -> false

(** The divisors of [n] in ascending order — the legal lane counts for
    reshaping a vector of length [n] (the axis the paper's Fig 15
    sweeps). Trial division up to √n: each divisor [d ≤ √n] pairs with
    [n / d ≥ √n], so [small] collects the lower half in descending
    order and [large] the upper half in ascending order. *)
let divisors (n : int) : int list =
  let rec go d small large =
    if d * d > n then List.rev_append small large
    else if n mod d <> 0 then go (d + 1) small large
    else if d * d = n then go (d + 1) (d :: small) large
    else go (d + 1) (d :: small) ((n / d) :: large)
  in
  go 1 [] []
