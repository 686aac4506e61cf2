type t =
  | Linear
  | Logical
  | Ratio

let g t n =
  match t with
  | Linear -> float_of_int n
  | Logical -> if n > 0 then 1.0 else 0.0
  | Ratio -> log (1.0 +. float_of_int n)

let all = [ Linear; Logical; Ratio ]

let to_string = function
  | Linear -> "linear"
  | Logical -> "logical"
  | Ratio -> "ratio"

let of_string = function
  | "linear" -> Some Linear
  | "logical" -> Some Logical
  | "ratio" -> Some Ratio
  | _ -> None
