(** Scalar types of the TyTra-IR.

    The TyTra-IR is strongly and statically typed (paper §IV). Types carry
    an explicit bit-width, e.g. [ui18] is an 18-bit unsigned integer — the
    width used throughout the paper's SOR listings. Widths are significant:
    the resource cost model (paper §V-A, Fig 9) is parameterised on the
    bit-width of each operation. *)

type t =
  | UInt of int  (** unsigned integer of the given bit-width, e.g. [ui18] *)
  | SInt of int  (** signed (two's-complement) integer *)
  | Float of int (** IEEE-754 binary float; width 32 or 64 *)
  | Bool         (** single-bit predicate, result of comparisons *)
[@@deriving show { with_path = false }, eq, ord]

(** [width t] is the bit-width of a value of type [t]. *)
let width = function
  | UInt w | SInt w | Float w -> w
  | Bool -> 1

(** [is_integer t] holds for [UInt]/[SInt]/[Bool]. *)
let is_integer = function UInt _ | SInt _ | Bool -> true | Float _ -> false

let is_float = function Float _ -> true | _ -> false
let is_signed = function SInt _ -> true | _ -> false

(** The widest integer type's width. *)
let max_int_width = 128

(** [valid t] checks representability constraints: integer widths in
    [1, max_int_width]; float widths 32 or 64. *)
let valid = function
  | UInt w | SInt w -> w >= 1 && w <= max_int_width
  | Float w -> w = 32 || w = 64
  | Bool -> true

(** Concrete syntax, as used in [.tirl] listings: [ui18], [si32], [fp32],
    [bool]. *)
let to_string = function
  | UInt w -> Printf.sprintf "ui%d" w
  | SInt w -> Printf.sprintf "si%d" w
  | Float w -> Printf.sprintf "fp%d" w
  | Bool -> "bool"

(* The value of the decimal digits [s.[i..]], or -1 if a byte there is
   not a digit or the value passes [max_int]. *)
let rec decimal s i acc =
  if i = String.length s then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if acc > (max_int - d) / 10 then -1
        else decimal s (i + 1) ((acc * 10) + d)
    | _ -> -1

(** [of_string s] parses the concrete syntax: exactly the names
    {!to_string} prints, so [ui0x12] and [ui018] are malformed. Returns
    [Error _] on malformed names or invalid widths. *)
let of_string s : (t, string) result =
  if
    String.length s > 2
    &&
    match (String.unsafe_get s 0, String.unsafe_get s 1) with
    | 'u', 'i' | 's', 'i' | 'f', 'p' -> true
    | _ -> false
  then
    (* the width as [to_string] prints it: decimal digits, without a
       sign, a base prefix, an underscore or a leading zero *)
    let w =
      if String.unsafe_get s 2 = '0' && String.length s > 3 then -1
      else decimal s 2 0
    in
    if w < 0 then Error (Printf.sprintf "malformed type %S" s)
    else
      let t =
        match String.unsafe_get s 0 with
        | 'u' -> UInt w
        | 's' -> SInt w
        | _ -> Float w
      in
      if valid t then Ok t else Error ("invalid width in type " ^ s)
  else if s = "bool" then Ok Bool
  else Error (Printf.sprintf "unknown type %S" s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> invalid_arg e

(** Range of representable values, for the interpreter and validator.
    Floats report an infinite range. *)
let int_range = function
  | UInt w ->
      let w = min w 62 in
      Some (0L, Int64.sub (Int64.shift_left 1L w) 1L)
  | SInt w ->
      let w = min w 62 in
      let h = Int64.shift_left 1L (w - 1) in
      Some (Int64.neg h, Int64.sub h 1L)
  | Bool -> Some (0L, 1L)
  | Float _ -> None

(** [mask t v] wraps the integer [v] into the representable range of [t]
    (modular arithmetic, as in hardware). Identity for float types. *)
let mask t (v : int64) : int64 =
  match t with
  | Float _ -> v
  | Bool -> if Int64.equal v 0L then 0L else 1L
  | UInt w when w >= 63 -> v
  | UInt w ->
      Int64.logand v (Int64.sub (Int64.shift_left 1L w) 1L)
  | SInt w when w >= 63 -> v
  | SInt w ->
      let m = Int64.shift_left 1L w in
      let r = Int64.rem v m in
      let r = if Int64.compare r 0L < 0 then Int64.add r m else r in
      let h = Int64.shift_left 1L (w - 1) in
      if Int64.compare r h >= 0 then Int64.sub r m else r

let pp_t fmt t = Format.pp_print_string fmt (to_string t)
