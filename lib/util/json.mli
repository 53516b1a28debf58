val escape : string -> string
(** The body of a JSON string literal, without the quotes: a quote,
    backslash, newline or tab is escaped by name, any other control
    byte as a [\u] escape of its code. *)
