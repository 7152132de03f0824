exception Parse_error of string

type token = Ident of string | Rel of string * bool (* exogenous? *) | Lpar | Rpar | Comma | Turnstile

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

let token_str = function
  | Ident v -> Printf.sprintf "%S" v
  | Rel (r, false) -> Printf.sprintf "relation %S" r
  | Rel (r, true) -> Printf.sprintf "relation %S" (r ^ "^x")
  | Lpar -> "'('"
  | Rpar -> "')'"
  | Comma -> "','"
  | Turnstile -> "':-'"

(* Where an error happened: the offending token with its character
   offset in the input, or the end of the input. *)
let at = function
  | (tok, off) :: _ -> Printf.sprintf "%s at offset %d" (token_str tok) off
  | [] -> "end of input"

(* Tokens are paired with the character offset where they start, so
   parse errors can point at the offending input. *)
let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let is_word c = is_alpha c || (c >= '0' && c <= '9') || c = '_' || c = '\'' in
  let push tok start = toks := (tok, start) :: !toks in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then begin push Lpar !i; incr i end
    else if c = ')' then begin push Rpar !i; incr i end
    else if c = ',' then begin push Comma !i; incr i end
    else if c = ':' && !i + 1 < n && s.[!i + 1] = '-' then begin
      push Turnstile !i;
      i := !i + 2
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_word s.[!i] do incr i done;
      let word = String.sub s start (!i - start) in
      if c >= 'A' && c <= 'Z' then begin
        (* Relation name; check for ^x exogenous marker. *)
        if !i + 1 < n && s.[!i] = '^' && s.[!i + 1] = 'x' then begin
          i := !i + 2;
          push (Rel (word, true)) start
        end
        else push (Rel (word, false)) start
      end
      else push (Ident word) start
    end
    else fail "unexpected character %C at offset %d" c !i
  done;
  List.rev !toks

let query s =
  let toks = tokenize s in
  (* Drop an optional head "name [(...)] :-": everything up to a Turnstile. *)
  let toks =
    let rec contains_turnstile = function
      | [] -> false
      | (Turnstile, _) :: _ -> true
      | _ :: rest -> contains_turnstile rest
    in
    if contains_turnstile toks then begin
      let rec drop = function
        | (Turnstile, _) :: rest -> rest
        | _ :: rest -> drop rest
        | [] -> fail "missing body after ':-'"
      in
      drop toks
    end
    else toks
  in
  let exo = ref [] in
  let rec parse_atoms acc = function
    | [] -> List.rev acc
    | (Rel (name, is_exo), _) :: (Lpar, _) :: rest ->
      let rec parse_args args = function
        | (Ident v, _) :: (Comma, _) :: rest -> parse_args (v :: args) rest
        | (Ident v, _) :: (Rpar, _) :: rest -> (List.rev (v :: args), rest)
        | rest ->
          fail "malformed argument list for %s: expected a lowercase variable, found %s" name
            (at rest)
      in
      let args, rest = parse_args [] rest in
      if is_exo then exo := name :: !exo;
      let atom = Atom.make name args in
      (match List.find_opt (fun (b : Atom.t) -> b.rel = name) acc with
      | Some b when Atom.arity b <> Atom.arity atom ->
        fail "relation %s used with arities %d and %d" name (Atom.arity b) (Atom.arity atom)
      | _ -> ());
      begin match rest with
      | [] -> List.rev (atom :: acc)
      | (Comma, off) :: [] -> fail "trailing comma at offset %d after %s" off (Atom.to_string atom)
      | (Comma, _) :: rest -> parse_atoms (atom :: acc) rest
      | rest -> fail "expected ',' or end of input after %s, found %s" (Atom.to_string atom) (at rest)
      end
    | (Rel (name, _), _) :: rest -> fail "expected '(' after relation %s, found %s" name (at rest)
    | rest ->
      fail
        "expected an atom (RELNAME(vars), relation names start uppercase), found %s"
        (at rest)
  in
  let atoms = parse_atoms [] toks in
  if atoms = [] then fail "empty query";
  Query.make ~exo:!exo atoms

let query_opt s =
  match query s with q -> Ok q | exception Parse_error msg -> Error msg
