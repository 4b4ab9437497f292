package radio

// ListSlack exposes listSlack to the external oracle, which times its
// probes to the receiver lists' lives.
const ListSlack = listSlack
