(** Text syntax for Boolean conjunctive queries.

    Grammar (whitespace-insensitive):
    {v
      query  ::= [name [vars] ":-"] atom ("," atom)*
      atom   ::= RELNAME ["^x"] "(" var ("," var)* ")"
      RELNAME starts with an uppercase letter; var with a lowercase letter.
    v}

    The suffix [^x] marks the relation exogenous (matching the paper's
    superscript-x notation), e.g.
    ["T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)"]. *)

exception Parse_error of string

val query : string -> Query.t
(** @raise Parse_error on malformed input, including a relation used
    with two different arities. *)

val query_opt : string -> (Query.t, string) result
