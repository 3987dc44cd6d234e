(** Alias of {!Lazyctrl_util.Json}, kept for [perfbench/]. *)

include module type of struct
  include Lazyctrl_util.Json
end
