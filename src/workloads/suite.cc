#include "harmonia/workloads/suite.hh"

#include "harmonia/common/error.hh"

namespace harmonia
{

std::vector<Application>
standardSuite()
{
    // Each application is moved in where it is made; a braced list
    // would copy every one, kernels and all, out of its initializer
    // list.
    std::vector<Application> suite;
    suite.reserve(14);
    for (Application (*make)() :
         {makeComd, makeXsbench, makeMiniFe, makeGraph500, makeBpt,
          makeCfd, makeLud, makeSrad, makeStreamcluster, makeStencil,
          makeSort, makeSpmv, makeMaxFlops, makeDeviceMemory})
        suite.push_back(make());
    return suite;
}

std::vector<Application>
suiteWithoutStress()
{
    std::vector<Application> out;
    for (auto &app : standardSuite()) {
        if (app.name != "MaxFlops" && app.name != "DeviceMemory")
            out.push_back(std::move(app));
    }
    return out;
}

Application
appByName(const std::string &name)
{
    for (auto &app : standardSuite()) {
        if (app.name == name)
            return app;
    }
    fatal("appByName: no application named '", name, "'");
}

} // namespace harmonia
