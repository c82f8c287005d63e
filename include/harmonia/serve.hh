/**
 * @file
 * Public serving surface (namespace harmonia::serve): the JsonWriter
 * encoder and the harmonia.request/1 protocol helpers, the
 * Service/ServiceOptions that answers one request line at a time, and
 * the Server/ServerOptions ppoll() reactor behind the harmoniad
 * daemon. Protocol clients that want a document tree include
 * harmonia/serve/json_tree.hh and link harmonia_json_tree. Protocol
 * and operations are documented in docs/SERVING.md.
 */

#ifndef HARMONIA_SERVE_HH
#define HARMONIA_SERVE_HH

#include "harmonia/serve/json.hh"
#include "harmonia/serve/protocol.hh"
#include "harmonia/serve/server.hh"
#include "harmonia/serve/service.hh"

#endif // HARMONIA_SERVE_HH
