/**
 * @file
 * The public Harmonia API facade — a thin aggregator over the topic
 * headers that carry the stable surface:
 *
 *  - harmonia/device.hh:   Device (the simulated GPU card: kernel
 *                          execution, lattice, training, governor
 *                          factory) and the DeviceRegistry profiles
 *                          behind Device::make(name);
 *  - harmonia/campaign.hh: Suite (the 14-application workloads), the
 *                          suite x schemes Campaign, the sweep engine,
 *                          sensitivity analysis, and TextTable;
 *  - harmonia/serve.hh:    the harmoniad serving vocabulary (namespace
 *                          harmonia::serve): JsonWriter, the
 *                          harmonia.request/1 protocol, Service and
 *                          the Server reactor (docs/SERVING.md);
 *  - harmonia/check.hh:    the 11-invariant model checker behind
 *                          check_model;
 *  - harmonia/lint.hh:     the source-contract analyzer behind
 *                          harmonia_lint (namespace harmonia::lint);
 *  - harmonia/exp.hh:      the registered-exhibit driver behind
 *                          harmonia_exp (namespace harmonia::exp).
 *
 * Applications can keep including this one header:
 *
 *   #include "harmonia/harmonia.hh"
 *
 * or pick the topic headers they need. Either way the public surface
 * is self-contained under include/harmonia/ — the supporting
 * vocabulary types (KernelProfile, HardwareConfig, AppRunResult,
 * Status/Result<T>, ...) live in harmonia/<layer>/ headers that the
 * topic headers re-export, and nothing here reaches into src/
 * internals (enforced by the public-header-isolation lint rule).
 */

#ifndef HARMONIA_HARMONIA_HH
#define HARMONIA_HARMONIA_HH

#include "harmonia/campaign.hh"
#include "harmonia/check.hh"
#include "harmonia/device.hh"
#include "harmonia/exp.hh"
#include "harmonia/lint.hh"
#include "harmonia/serve.hh"

#endif // HARMONIA_HARMONIA_HH
