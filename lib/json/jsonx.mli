(** Minimal JSON reader/writer shared by the [cbsp-serve/1] line
    protocol and the validation harness (error-budget files and
    [cbsp-validate/1] leaderboards).

    The rest of the repo only prints JSON by hand; these consumers must
    also parse it, and the toolchain ships no JSON library.  This covers
    the full value grammar with escape handling; numbers are doubles
    (printed with enough digits to round-trip).  {!to_string} emits no
    newlines, so a message is always one protocol line. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string

val quote : string -> string
(** [s] as a JSON string literal, quotes included: the escaping
    {!to_string} applies to [Str s].  For documents printed by hand. *)

val of_string : string -> t
(** @raise Parse_error on malformed input (including trailing bytes). *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on absent field or non-object. *)

val to_str : t -> string option

val to_num : t -> float option

val to_int : t -> int option
(** Integral numbers only. *)

val str_member : string -> t -> default:string -> string

val int_member : string -> t -> default:int -> int
